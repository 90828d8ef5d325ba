package corpus

import (
	"slices"
	"testing"
)

// TestServedNames: every case has its own name, the names a test may
// quote are there, and -short is the n = 24 prefix of the slice.
func TestServedNames(t *testing.T) {
	all, short := Served(false), Served(true)
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.Name] {
			t.Fatalf("two cases are named %s", c.Name)
		}
		seen[c.Name] = true
	}
	for _, name := range []string{
		"masterslave/n48/dense/c97/s1",
		"masterslave/n24/sparse/c5/s2/send-or-receive",
		"broadcast/n24/dense/c5/s1",
		"multicast-sum/n48/sparse/c97/s2",
	} {
		if !seen[name] {
			t.Errorf("no case %s", name)
		}
	}
	if len(all) != 8*6+8*4 || !slices.EqualFunc(short, all[:len(short)], func(a, b Case) bool { return a.Name == b.Name }) || len(short) != 8*6 {
		t.Fatalf("%d cases, %d of them short; want 80 and the first 48", len(all), len(short))
	}
}
