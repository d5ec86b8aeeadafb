package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/event"
)

func TestFigure1OperatorTable(t *testing.T) {
	s := Figure1()
	for _, want := range []string{"Negation", "Conjunction", "Precedence", "Disjunction",
		"-=", "+=", "<=", ",="} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 1 missing %q:\n%s", want, s)
		}
	}
	// Paper order: negation first, disjunction last.
	if strings.Index(s, "Negation") > strings.Index(s, "Disjunction") {
		t.Error("Figure 1 priority order wrong")
	}
}

func TestFigure2Dimensions(t *testing.T) {
	s := Figure2()
	for _, want := range []string{"boolean", "temporal", "granularity", "precedence"} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 2 missing %q", want)
		}
	}
}

func TestFigure3Base(t *testing.T) {
	b, s := Figure3()
	if b.Len() != 7 {
		t.Fatalf("Figure 3 EB has %d rows, want 7", b.Len())
	}
	if !strings.Contains(s, "e4 | create(notFilledOrder) | o3 | t4") {
		t.Errorf("Figure 3 rendering:\n%s", s)
	}
}

func TestFigure4Matches(t *testing.T) {
	s := Figure4()
	for _, want := range []string{
		"type(e1) = create(stock)",
		"obj(e5) = o1",
		"obj(e6) = o2",
		"timestamp(e4) = t4",
		"event-on-class(e1) = stock",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 4 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure5Series(t *testing.T) {
	series, text := Figure5()
	if len(series) != 6 {
		t.Fatalf("Figure 5 has %d curves, want 6", len(series))
	}
	// The De Morgan pair must coincide pointwise.
	if !calculus.EqualSeries(series[4], series[5]) {
		t.Fatal("-ts(A,B) and ts(-A + -B) differ")
	}
	if !strings.Contains(text, "pointwise ✓") {
		t.Error("rendering does not report the graphical proof")
	}
	// Spot-check curve shapes on the C A C B A B C history (A at t2,t5;
	// B at t4,t6).
	tsA := series[0]
	wantA := []int64{-1, 2, 2, 2, 5, 5, 5, 5}
	for i, w := range wantA {
		if int64(tsA.Values[i]) != w {
			t.Fatalf("ts(A) at t=%d is %d, want %d", i+1, int64(tsA.Values[i]), w)
		}
	}
	tsNotA := series[1]
	wantNotA := []int64{1, -2, -2, -2, -5, -5, -5, -5}
	for i, w := range wantNotA {
		if int64(tsNotA.Values[i]) != w {
			t.Fatalf("ts(-A) at t=%d is %d, want %d", i+1, int64(tsNotA.Values[i]), w)
		}
	}
}

func TestFigure6And7Render(t *testing.T) {
	if !strings.Contains(Figure6(), "Δ+(-E)        = Δ−(E)") {
		t.Error("Figure 6 missing the negation rule")
	}
	if !strings.Contains(Figure7(), "{Δ+E, Δ−E}     → {Δ±E}") {
		t.Error("Figure 7 missing the sign merge")
	}
}

func TestWorkedExampleMatchesPaper(t *testing.T) {
	v, text := WorkedVariationExample()
	if len(v) != 3 {
		t.Fatalf("V(E) = %s, want 3 entries", v)
	}
	want := map[string]calculus.Sign{
		"create(a)": calculus.SignBoth,
		"create(b)": calculus.SignBoth,
		"create(c)": calculus.SignPos,
	}
	for _, variation := range v {
		if want[variation.Type.String()] != variation.Sign {
			t.Errorf("V(E) entry %s has sign %s", variation.Type, variation.Sign)
		}
	}
	if !strings.Contains(text, "V(E)") {
		t.Error("rendering incomplete")
	}
}

func TestTimelines(t *testing.T) {
	x1 := TimelineX1()
	if !strings.Contains(x1, "precedence") {
		t.Error("X1 missing precedence row")
	}
	x2 := TimelineX2()
	// The paper's key contrast: set conjunction active across objects,
	// instance conjunction not.
	if !strings.Contains(x2, "[set conj]       active at t=35: true") &&
		!strings.Contains(x2, "[set conj]      ") {
		t.Errorf("X2 rendering:\n%s", x2)
	}
	if !strings.Contains(x2, "[instance conj]  active at t=35: false") {
		t.Errorf("X2 must show the instance conjunction inactive:\n%s", x2)
	}
}

func TestExampleX4(t *testing.T) {
	s := ExampleX4()
	for _, want := range []string{
		"triggered [checkStockQty]",
		"condition holds (2 bindings)",
		"quantity: 40",
		"quantity: 10",
		"rule executions: 1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("X4 transcript missing %q in:%s", want, "\n"+s)
		}
	}
}

func TestAllFigures(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("All() = %d figures", len(all))
	}
	for _, f := range all {
		if f.Text == "" {
			t.Errorf("figure %s is empty", f.ID)
		}
	}
	_ = event.Create("x")
}

// TestFiguresMatchReference holds what `chimera-figures` prints with no
// flags — every figure's text followed by a newline — to the reference
// output docs/figures.txt, byte for byte.
func TestFiguresMatchReference(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, f := range All() {
		sb.WriteString(f.Text + "\n")
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from docs/figures.txt:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, docs/figures.txt %d", len(gotLines), len(wantLines))
}
