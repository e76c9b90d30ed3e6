package experiment

import (
	"sort"
	"testing"
)

func TestListSortedAndComplete(t *testing.T) {
	list := List()
	if len(list) == 0 {
		t.Fatal("empty listing")
	}
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].ID < list[j].ID }) {
		t.Error("List() not sorted by ID")
	}
	ids := IDs()
	if len(ids) != len(list) {
		t.Fatalf("IDs() has %d entries, List() has %d", len(ids), len(list))
	}
	for i, info := range list {
		if info.ID != ids[i] {
			t.Errorf("List()[%d].ID = %q, IDs()[%d] = %q", i, info.ID, i, ids[i])
		}
		if info.Title == "" || info.Description == "" {
			t.Errorf("experiment %q has empty title or description", info.ID)
		}
	}
	// The paper's headline experiments must be present.
	for _, want := range []string{"fig4", "fig13", "table2", "overhead", "ablate-gammacap", "ext-dual"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) missing", want)
		}
	}
}

func TestListReturnsCopy(t *testing.T) {
	a := List()
	a[0].ID = "clobbered"
	if b := List(); b[0].ID == "clobbered" {
		t.Error("List() exposes shared backing storage")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", 1, 1); err == nil {
		t.Error("Run with unknown id returned nil error")
	}
}
