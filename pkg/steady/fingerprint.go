package steady

import "repro/pkg/steady/platform"

// Fingerprint returns a canonical content hash of the platform
// (platform.Platform.Fingerprint): two platforms built with the same
// node names, weights, and edges (in the same order) share a
// fingerprint, regardless of how they were constructed.
// pkg/steady/batch keys its LP-solution cache on (Fingerprint,
// Solver.Name), so the hash covers every input the solvers read.
//
// Node order is significant: the built-in solvers address nodes by
// index (Spec.Root == "" means node 0), so platforms that differ only
// by node permutation are distinct solve inputs.
func Fingerprint(p *platform.Platform) string { return p.Fingerprint() }
