package hostunit

import "testing"

func TestScanIsDeterministicAndNonTrivial(t *testing.T) {
	a, b := New(), New()
	a.Scan()
	b.Scan()
	if a.sink != b.sink || a.sink <= 0 {
		t.Fatalf("scan sums differ or vanish: %v vs %v", a.sink, b.sink)
	}
	if u := a.Unit(3); u <= 0 {
		t.Fatalf("unit %v", u)
	}
}
