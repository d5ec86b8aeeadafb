package engine_test

// FuzzEngineBlock feeds random command scripts through a fully
// instrumented engine (metrics registry, span tracer, tiny Event Base
// segments so compaction fires constantly, sharded triggering) and
// asserts the structural invariants that must hold on EVERY input, valid
// or garbage: no panic, strictly balanced BlockStart/BlockEnd and
// TransactionStart/TransactionEnd spans, and a metrics snapshot whose
// counters are coherent. It lives in an external test package so it can
// drive the engine through the public chimera + shell surface, exactly
// as a user would.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/rules"
	"chimera/internal/shell"
)

// fuzzBalanceTracer counts span brackets. The engine processes blocks on
// the transaction's goroutine (the sharded check joins its workers
// before returning), so plain ints suffice.
type fuzzBalanceTracer struct {
	chimera.NopTracer
	blockStarts, blockEnds int
	txnStarts, txnEnds     int
}

func (tr *fuzzBalanceTracer) BlockStart(events int)               { tr.blockStarts++ }
func (tr *fuzzBalanceTracer) BlockEnd(events int, fired []string) { tr.blockEnds++ }
func (tr *fuzzBalanceTracer) TransactionStart(start chimera.Time) { tr.txnStarts++ }
func (tr *fuzzBalanceTracer) TransactionEnd(committed bool)       { tr.txnEnds++ }

func FuzzEngineBlock(f *testing.F) {
	// Seed with every language-conformance script plus hand-written
	// scripts that reach transactions, composite rules and cascades.
	specs, _ := filepath.Glob(filepath.Join("..", "spec", "testdata", "*.spec"))
	for _, p := range specs {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add(`define class item(n: integer, cap: integer)
define immediate clamp for item
events create, modify(n)
condition item(S), occurred(create , modify(n), S), S.n > S.cap
action modify(item.n, S, S.cap)
end
begin
create item(n = 9, cap = 5)
end line
create item(n = 1, cap = 5)
modify item(1).n = 77
end line
commit
show stats
`)
	f.Add("begin\nraise tick\nend line\nrollback\n")
	f.Add("define class a(x: integer)\nbegin\ncreate a(x = 1)\ndelete a(1)\nend line\ncommit\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		reg := chimera.NewMetricsRegistry()
		db := chimera.OpenWith(chimera.Options{
			Support:           rules.Options{UseFilter: true},
			MaxRuleExecutions: 200,
			SegmentSize:       8,
			Metrics:           reg,
		})
		tr := &fuzzBalanceTracer{}
		db.SetTracer(tr)
		sh := shell.New(db, io.Discard)

		var block strings.Builder
		for _, line := range strings.Split(src, "\n") {
			// save/load touch the filesystem (and load swaps the
			// database out from under the tracer); keep the fuzz
			// hermetic by dropping them.
			if fields := strings.Fields(line); len(fields) > 0 &&
				(fields[0] == "save" || fields[0] == "load") {
				continue
			}
			block.WriteString(line)
			block.WriteByte('\n')
			if shell.NeedsMore(block.String()) {
				continue
			}
			cmd := strings.TrimSpace(block.String())
			block.Reset()
			if cmd == "" {
				continue
			}
			// Errors are expected on garbage input; panics are not.
			_ = sh.Execute(cmd)
		}
		sh.Close()

		if tr.blockStarts != tr.blockEnds {
			t.Fatalf("unbalanced block spans: %d starts, %d ends", tr.blockStarts, tr.blockEnds)
		}
		if tr.txnStarts != tr.txnEnds {
			t.Fatalf("unbalanced transaction spans: %d starts, %d ends", tr.txnStarts, tr.txnEnds)
		}
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			if v < 0 {
				t.Fatalf("counter %s went negative: %d", name, v)
			}
		}
		if got, want := snap.Counters["chimera_engine_commits_total"]+
			snap.Counters["chimera_engine_rollbacks_total"],
			snap.Counters["chimera_engine_transactions_total"]; got != want {
			t.Fatalf("commits+rollbacks = %d, transactions = %d", got, want)
		}
		if int64(tr.blockEnds) != snap.Counters["chimera_engine_blocks_total"] {
			t.Fatalf("%d block spans, metrics counted %d blocks",
				tr.blockEnds, snap.Counters["chimera_engine_blocks_total"])
		}
		for name, h := range snap.Histograms {
			var bucketSum int64
			for _, c := range h.Counts {
				bucketSum += c
			}
			if bucketSum != h.Count {
				t.Fatalf("histogram %s: bucket sum %d != count %d", name, bucketSum, h.Count)
			}
		}
	})
}
