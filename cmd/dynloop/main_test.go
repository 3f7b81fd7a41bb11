package main

import (
	"reflect"
	"testing"

	"dynloop/internal/expt"
)

// TestSweepGridLists: the -bench, -policy and -tus lists tolerate
// spaces around entries and empty entries (a trailing comma), and parse
// to what the tidy spelling parses to.
func TestSweepGridLists(t *testing.T) {
	wantBench, want, err := sweepGrid("swim,li", "str,str3", "2,4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBench, []string{"swim", "li"}) ||
		!reflect.DeepEqual(want.Policies, []string{"STR", "STR(3)"}) || !reflect.DeepEqual(want.TUs, []int{2, 4}) {
		t.Fatalf("tidy lists parsed to %q, %q, %v", wantBench, want.Policies, want.TUs)
	}
	for _, in := range [][3]string{
		{"swim, li", "str, str3", "2, 4"},
		{"swim,li,", "str,str3,", "2,4,"},
		{" swim ,, li , ", ",str ,  str3", " 2 ,4,,"},
	} {
		bench, gs, err := sweepGrid(in[0], in[1], in[2])
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual(bench, wantBench) || !reflect.DeepEqual(gs, want) {
			t.Errorf("%q parsed to %q, %q, %v; want %q, %q, %v",
				in, bench, gs.Policies, gs.TUs, wantBench, want.Policies, want.TUs)
		}
	}
}

// TestSweepGridDefaults: empty lists, or lists of nothing but commas,
// select every benchmark and the registered sweep's axes.
func TestSweepGridDefaults(t *testing.T) {
	want := expt.SweepSpec{}.GridSpec()
	for _, in := range []string{"", ",", " , "} {
		bench, gs, err := sweepGrid(in, in, in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if bench != nil || !reflect.DeepEqual(gs, want) {
			t.Errorf("%q parsed to %q, %q, %v; want all benchmarks and the default axes", in, bench, gs.Policies, gs.TUs)
		}
	}
}

// TestSweepGridRejects: a malformed entry is still an error, named as
// the user spelled it.
func TestSweepGridRejects(t *testing.T) {
	for _, in := range [][3]string{
		{"swim", "str", "2, x"},
		{"swim", "str", "-1"},
		{"swim", "str, bogus", "2"},
	} {
		if _, _, err := sweepGrid(in[0], in[1], in[2]); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}
