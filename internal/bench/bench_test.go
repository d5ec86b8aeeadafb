package bench

import (
	"strings"
	"testing"

	"chimera/internal/rules"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tbl.String()
	for _, want := range []string{"== T — demo ==", "long-header", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// Small-configuration smoke runs of every experiment driver: the
// invariants the tables assert (semantic transparency of the filter)
// must hold at any scale.
func TestRunB1Transparency(t *testing.T) {
	r := RunB1Config(20, 0.2, 10, 4)
	if !r.TriggeringsOK {
		t.Fatal("V(E) optimization changed the triggering outcome")
	}
	if r.OptTsEvals > r.NaiveTsEvals {
		t.Fatalf("filtered run evaluated more: %d > %d", r.OptTsEvals, r.NaiveTsEvals)
	}
}

func TestRunB4Shapes(t *testing.T) {
	r := RunB4(20, 10, 4)
	if r.LegacyNs <= 0 || r.CalculusNs <= 0 {
		t.Fatalf("timings missing: %+v", r)
	}
	if r.Triggerings == 0 {
		t.Fatal("no triggerings in the legacy run")
	}
}

func TestRunB5Modes(t *testing.T) {
	ns := RunB5(B5Config{Coupling: rules.Immediate, Consumption: rules.Consuming}, 2, 5, 2)
	if ns <= 0 {
		t.Fatal("no timing")
	}
}

func TestB2B3Builders(t *testing.T) {
	env, e, now := B2Eval(3)
	if env == nil || e == nil || now == 0 {
		t.Fatal("B2Eval incomplete")
	}
	env.TS(e, now) // must not panic
	env, e, now = B3Eval(8)
	env.TS(e, now)
}

func TestByID(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown experiment accepted")
	}
	// Case-insensitive lookup resolves without running (cheap ids only
	// would still run the experiment; just check the miss path plus the
	// registry size via All's length elsewhere).
}

func TestTableCSV(t *testing.T) {
	tbl := Table{ID: "T", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", `x,"y`}}}
	got := tbl.CSV()
	want := "a,b\n1,\"x,\"\"y\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestB15MicroRun(t *testing.T) {
	// A tiny end-to-end pass over the real experiment code: the speedup
	// math keys off each configuration's baseline row, and the soak's
	// flatness bit must hold even at micro scale.
	sweep := B15ThroughputResults(300, 1, []int{64})
	if len(sweep) != 8 {
		t.Fatalf("sweep has %d cells, want 8 (4 configs x {per-txn, 64})", len(sweep))
	}
	for _, c := range sweep {
		if c.EventsPerSec <= 0 {
			t.Fatalf("non-positive throughput in %+v", c)
		}
		if c.Batch == 0 && c.Speedup != 1 {
			t.Fatalf("baseline row speedup = %v, want 1", c.Speedup)
		}
	}
	soak := B15SoakResults(30_000)
	if !soak.Flat {
		t.Fatalf("micro soak not flat: %+v", soak)
	}
	if !soak.FloorAdvanced {
		t.Fatal("micro soak never advanced the compaction floor")
	}
	tab := B15FromResults(B15Result{Throughput: sweep, Soak: soak})
	if tab.ID != "B15" || len(tab.Rows) != 9 {
		t.Fatalf("unexpected table shape: id=%s rows=%d", tab.ID, len(tab.Rows))
	}
}

func TestRunB9Bounds(t *testing.T) {
	consuming := RunB9("consuming", 20, 300, 8)
	if !consuming.Bounded || consuming.RetiredOccs == 0 {
		t.Fatalf("all-consuming soak must retire and plateau: %+v", consuming)
	}
	preserving := RunB9("preserving", 20, 300, 8)
	if preserving.RetiredOccs != 0 || preserving.LiveEnd != preserving.Appended {
		t.Fatalf("a preserving rule pins the watermark, nothing may retire: %+v", preserving)
	}
	if tab := B9FromResults([]B9Result{consuming, preserving}); len(tab.Rows) != 2 {
		t.Fatalf("B9 table has %d rows, want 2", len(tab.Rows))
	}
}
