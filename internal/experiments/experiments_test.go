package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{N: 40000, Seed: 1, Quick: true} }

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
	if len(ids) != len(want) {
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registered %v, want %v", ids, want)
		}
	}
	if _, ok := ByID("E04"); !ok {
		t.Fatal("ByID(E04) missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should not exist")
	}
}

// Every experiment must run at quick scale and produce non-empty,
// renderable tables.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(quickCfg())
			if res.ID != e.ID {
				t.Errorf("result ID %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range res.Tables {
				if tb.Rows() == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if out := tb.String(); len(out) == 0 {
					t.Error("empty render")
				}
			}
			if len(res.Notes) == 0 {
				t.Error("no claim notes")
			}
		})
	}
}

// Output is a function of (n, seed): E03 and E13, which once ranged
// over a map for their rows, must render the same text run after run.
func TestRowOrderDeterministic(t *testing.T) {
	for _, id := range []string{"E03", "E13"} {
		e, _ := ByID(id)
		var first string
		for run := 0; run < 20; run++ {
			var out strings.Builder
			for _, tb := range e.Run(quickCfg()).Tables {
				out.WriteString(tb.String())
			}
			if run == 0 {
				first = out.String()
			} else if out.String() != first {
				t.Fatalf("%s: run %d renders\n%s\nrun 0 rendered\n%s", id, run, out.String(), first)
			}
		}
	}
}

// E01's key property: ratio column (realized error / bound) <= 1 and
// violations == 0 on every row.
func TestE01BoundHolds(t *testing.T) {
	e, _ := ByID("E01")
	res := e.Run(quickCfg())
	tb := res.Tables[0]
	for r := 0; r < tb.Rows(); r++ {
		ratio, err := strconv.ParseFloat(tb.Cell(r, 5), 64)
		if err != nil {
			t.Fatalf("row %d ratio: %v", r, err)
		}
		if ratio > 1 {
			t.Errorf("row %d: error/bound ratio %v > 1", r, ratio)
		}
		if tb.Cell(r, 7) != "0" {
			t.Errorf("row %d: violations = %s", r, tb.Cell(r, 7))
		}
	}
}

// E02: isomorphism must hold and intervals must be sound.
func TestE02Isomorphism(t *testing.T) {
	e, _ := ByID("E02")
	res := e.Run(quickCfg())
	tb := res.Tables[0]
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, 6) != "yes" {
			t.Errorf("row %d: isomorphism broken", r)
		}
		if tb.Cell(r, 5) != "0" {
			t.Errorf("row %d: violations = %s", r, tb.Cell(r, 5))
		}
	}
}

// E03: recall must be 1.0 on every row (completeness of merging).
func TestE03PerfectRecall(t *testing.T) {
	e, _ := ByID("E03")
	res := e.Run(quickCfg())
	tb := res.Tables[0]
	for r := 0; r < tb.Rows(); r++ {
		if got := tb.Cell(r, 4); got != "1" {
			t.Errorf("row %d: recall = %s, want 1", r, got)
		}
	}
}

// E04: the golden table must reproduce the supplied text's numbers
// exactly, and the sweep ratio must never exceed 1.
func TestE04GoldenAndRatio(t *testing.T) {
	e, _ := ByID("E04")
	res := e.Run(quickCfg())
	golden := res.Tables[0]
	for r := 0; r < golden.Rows(); r++ {
		if golden.Cell(r, 2) != golden.Cell(r, 3) {
			t.Errorf("golden row %d: measured %s != paper %s", r, golden.Cell(r, 2), golden.Cell(r, 3))
		}
	}
	sweep := res.Tables[1]
	for r := 0; r < sweep.Rows(); r++ {
		ratio, err := strconv.ParseFloat(sweep.Cell(r, 5), 64)
		if err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
		if ratio > 1+1e-9 {
			t.Errorf("sweep row %d: low/pods ratio %v > 1", r, ratio)
		}
	}
}

// E05/E08: realized error over eps must stay below 1.
func TestQuantileErrWithinEps(t *testing.T) {
	for _, id := range []string{"E05", "E08"} {
		e, _ := ByID(id)
		res := e.Run(quickCfg())
		tb := res.Tables[0]
		last := len(tb.Columns) - 1
		for r := 0; r < tb.Rows(); r++ {
			v, err := strconv.ParseFloat(tb.Cell(r, last), 64)
			if err != nil {
				t.Fatalf("%s row %d: %v", id, r, err)
			}
			if v > 1 {
				t.Errorf("%s row %d: err/eps = %v > 1", id, r, v)
			}
		}
	}
}

// E11: kernel merging must be lossless on every row.
func TestE11Lossless(t *testing.T) {
	e, _ := ByID("E11")
	res := e.Run(quickCfg())
	tb := res.Tables[0]
	last := len(tb.Columns) - 1
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, last) != "yes" {
			t.Errorf("row %d: kernel merge not lossless", r)
		}
	}
}

// E15: distinct-count merging must be lossless on every row.
func TestE15Lossless(t *testing.T) {
	e, _ := ByID("E15")
	res := e.Run(quickCfg())
	tb := res.Tables[0]
	last := len(tb.Columns) - 1
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, last) != "yes" {
			t.Errorf("row %d: distinct merge not lossless", r)
		}
	}
}

// Table titles embed their experiment IDs so EXPERIMENTS.md can be
// cross-referenced mechanically.
func TestTitlesCarryIDs(t *testing.T) {
	for _, e := range All() {
		if e.ID == "E14" {
			continue // throughput tables are timed; covered above
		}
		res := e.Run(quickCfg())
		found := false
		for _, tb := range res.Tables {
			if strings.HasPrefix(tb.Title, e.ID) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no table title carries the experiment ID", e.ID)
		}
	}
}
