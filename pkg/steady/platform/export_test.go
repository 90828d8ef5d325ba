package platform

// Encodings reports how many canonical forms (Fingerprint) every
// platform of the process has written so far.
func Encodings() int64 { return encodings.Load() }

// CanonicalHash is Fingerprint's hash computed afresh, what the kept one
// saves.
func (p *Platform) CanonicalHash() string { return p.canonicalHash() }
