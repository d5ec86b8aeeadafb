package analysis

import (
	"fmt"
	"strings"

	"chimera/internal/calculus"
	"chimera/internal/engine"
)

// SharingReport quantifies cross-rule structure sharing in the interned
// trigger plan: how many expression tree nodes the rule set writes down
// versus how many DAG nodes the engine actually evaluates.
type SharingReport struct {
	// Rules is the number of defined rules.
	Rules int
	// TreeNodes is the total node count over every rule's event formula
	// read as an independent tree — the work a per-rule evaluator faces.
	TreeNodes int
	// DAGNodes is the number of live interned nodes — the work the
	// shared evaluator faces per probe in the worst case.
	DAGNodes int
	// SharedNodes counts DAG nodes referenced more than once.
	SharedNodes int
	// DedupRatio is TreeNodes / DAGNodes (1.0 = no sharing). The memo
	// saves at least this factor on fully overlapping probe windows.
	DedupRatio float64
	// Top lists the most-shared subexpressions, most referenced first.
	Top []calculus.SharedNode
}

// AnalyzeSharing inspects the database's trigger plan. Cheap: it walks
// the rule list once and reads the DAG's counters.
func AnalyzeSharing(db *engine.DB) SharingReport {
	sup := db.Support()
	var r SharingReport
	for _, name := range sup.Rules() {
		st, ok := sup.Rule(name)
		if !ok {
			continue
		}
		r.Rules++
		r.TreeNodes += calculus.Size(st.Def.Event)
	}
	p := sup.Plan()
	r.DAGNodes = p.Live()
	r.SharedNodes = p.Shared()
	if r.DAGNodes > 0 {
		r.DedupRatio = float64(r.TreeNodes) / float64(r.DAGNodes)
	}
	const topN = 5
	r.Top = p.SharedNodes(2)
	if len(r.Top) > topN {
		r.Top = r.Top[:topN]
	}
	return r
}

// String renders the report.
func (r SharingReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shared plan: %d rules, %d tree nodes -> %d DAG nodes (dedup %.2fx, %d shared)\n",
		r.Rules, r.TreeNodes, r.DAGNodes, r.DedupRatio, r.SharedNodes)
	for _, n := range r.Top {
		fmt.Fprintf(&sb, "  %dx (%d nodes)  %s\n", n.Refs, n.Size, n.Expr)
	}
	return sb.String()
}
