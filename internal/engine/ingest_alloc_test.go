package engine

import (
	"fmt"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// A warm in-memory transaction ingests blocks of 256 events over 8
// types and 32 objects, each block ended by EndLine, under rules that
// listen to every type and never fire (each waits for a signal that
// never comes). Appending an event, announcing it to the line's session
// and checking the block allocate nothing per event: what allocates is
// a segment's storage, once per segment, and nothing per occurrence. The
// gate is at most a tenth of an allocation per event.
func TestIngestAllocationsPerEvent(t *testing.T) {
	const blocks, perBlock, ntypes, objects = 16, 256, 8, 32
	db := New(DefaultOptions())
	attrs := make([]schema.Attribute, ntypes)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("f%d", i), Kind: types.KindInt}
	}
	if err := db.DefineClass("card", attrs...); err != nil {
		t.Fatal(err)
	}
	tys := make([]event.Type, ntypes)
	for i := range tys {
		tys[i] = event.Modify("card", fmt.Sprintf("f%d", i))
		def := rules.Def{
			Name:  fmt.Sprintf("waits%d", i),
			Event: calculus.Conj(calculus.P(tys[i]), calculus.P(event.External("never"))),
		}
		if err := db.DefineRule(def, Body{}); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.SetRetention(4 * perBlock); err != nil {
		t.Fatal(err)
	}
	k := 0
	ingest := func() {
		for b := 0; b < blocks; b++ {
			for i := 0; i < perBlock; i++ {
				if err := tx.Emit(tys[k%ntypes], types.OID(1+k/ntypes%objects)); err != nil {
					t.Fatal(err)
				}
				k++
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest() // warm: every table and scratch buffer at its steady size
	perEvent := testing.AllocsPerRun(4, ingest) / (blocks * perBlock)
	t.Logf("%.4f allocations per event", perEvent)
	if perEvent > 0.1 {
		t.Errorf("ingest allocates %.3f times per event, want at most 0.1", perEvent)
	}
	// Every rule was in every block's batch, and none fired.
	if st := tx.view.Stats(); st.Triggerings != 0 || st.RulesExamined-st.RulesSkipped != st.Checks*ntypes {
		t.Fatalf("%+v: every rule must listen to every block without firing", st)
	}
}
