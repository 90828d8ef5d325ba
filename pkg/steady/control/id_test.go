package control

import (
	"context"
	"regexp"
	"strings"
	"testing"
)

// idRegexp is the check validID replaces; the tests hold the two to
// the same accept set.
var idRegexp = regexp.MustCompile(idPattern)

func TestValidIDMatchesPattern(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want bool
	}{
		{"", false},
		{"a", true},
		{"Z", true},
		{"7", true},
		{"ok", true},
		{"web-tier_2.prod", true},
		{"a.", true},
		{"a-", true},
		{"a_", true},
		{strings.Repeat("x", 64), true},
		{strings.Repeat("x", 65), false},
		{"a" + strings.Repeat(".", 63), true},
		{"a" + strings.Repeat(".", 64), false},
		{".hidden", false},
		{"_lead", false},
		{"-lead", false},
		{"a b", false},
		{"x/y", false},
		{"a\n", false},
		{"\na", false},
		{"a\x00", false},
		{"\x00", false},
		{"é", false},
		{"aé", false},
		{"a\xff", false},
		{"a+b", false},
		{"a:b", false},
		{"a~b", false},
		{"a@b", false},
		{"[a]", false},
		{"a`", false},
		{"a{", false},
		{"a/", false},
		{string(make([]byte, 80)), false},
	} {
		if got := validID(tc.id); got != tc.want {
			t.Errorf("validID(%q) = %v, want %v", tc.id, got, tc.want)
		}
		if re := idRegexp.MatchString(tc.id); re != tc.want {
			t.Errorf("pattern on %q = %v, table says %v", tc.id, re, tc.want)
		}
	}
	// Every single byte, alone and after a valid first byte.
	for b := 0; b < 256; b++ {
		for _, id := range []string{string([]byte{byte(b)}), "a" + string([]byte{byte(b)})} {
			if got, want := validID(id), idRegexp.MatchString(id); got != want {
				t.Errorf("validID(%q) = %v, pattern says %v", id, got, want)
			}
		}
	}
}

// TestBadIDErrorText pins the refusal's text: it names the pattern as
// the compiled regexp used to print it.
func TestBadIDErrorText(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	_, err := m.Create(context.Background(), "a b", demoSpec(), demoPlatform())
	const want = `control: bad deployment: id "a b" (want ^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$)`
	if err == nil || err.Error() != want {
		t.Fatalf("Create(\"a b\") = %v, want %s", err, want)
	}
}

func FuzzDeploymentID(f *testing.F) {
	for _, s := range []string{"", "a", "ok", ".x", "_x", "-x", "a\n", "a\x00", "é", strings.Repeat("x", 64), strings.Repeat("x", 65)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if got, want := validID(id), idRegexp.MatchString(id); got != want {
			t.Fatalf("validID(%q) = %v, pattern says %v", id, got, want)
		}
	})
}
