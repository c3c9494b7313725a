package netlist

import (
	"reflect"
	"testing"
)

func TestBlueprintRoundTrip(t *testing.T) {
	d := cloneFixture(t)
	bp := d.Blueprint()
	d2, err := FromBlueprint(bp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := connectivitySig(d2), connectivitySig(d); got != want {
		t.Fatalf("rebuilt design differs:\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(d2.Blueprint(), bp) {
		t.Fatal("blueprint of rebuilt design differs")
	}
	// The name sequence must carry over so post-rebuild FreshName picks the
	// same names the original would have.
	n1 := d.FreshName("eco")
	n2 := d2.FreshName("eco")
	if n1 != n2 {
		t.Fatalf("FreshName diverged after rebuild: %q vs %q", n1, n2)
	}
}
