package dns

import (
	"os"
	"testing"
)

// TestMain turns the release poison on for every test in this binary —
// the in-package tests and the whole-study runs in package dns_test
// alike — so a pooled message that is read after its Release (or a
// request kept past ServeDNS) yields garbage and fails whatever looked.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}
