// Package spec implements a data-driven conformance runner for the
// event calculus, in the spirit of sqllogictest: scenario files under
// testdata/ describe an event history and a list of assertions over ts
// values, activation states, triggering verdicts, affected objects and
// activation instants. The files are a second, independent encoding of
// the paper's semantics — the Go tests assert behaviour through the API,
// the spec files assert it through the concrete syntax.
//
// File format (one directive per line, "--" comments):
//
//	history  <type>@<t>:<oid> <type>@<t>:<oid> ...
//	since    <t>                       -- window lower bound (default 0)
//	ts       <expr> @<t> = <value>     -- exact ts value
//	active   <expr> @<t> = true|false  -- activation only
//	trigger  <expr> now=<t> = fired@<t'>|none
//	affected <expr> @<t> = o1,o2|none  -- occurred() binding set
//	times    <expr> obj=<oid> @<t> = t3,t5|none   -- at() instants
//
// Expressions use the full Figure 1 syntax and may contain spaces; the
// directive grammar finds the last '@'/'now='/'obj=' marker instead of
// splitting on whitespace.
package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/lang"
	"chimera/internal/types"
)

// Directive is one parsed assertion (or the history/since header).
type Directive struct {
	Line int
	Kind string // history, since, ts, active, trigger, affected, times
	Expr calculus.Expr
	At   clock.Time
	OID  types.OID
	// Want* carry the expectation, per kind.
	WantInt  int64
	WantBool bool
	WantList []string
	History  []event.Occurrence
	Since    clock.Time
}

// Scenario is one spec file.
type Scenario struct {
	Name       string
	History    []historyRow
	Since      clock.Time
	Directives []Directive
}

type historyRow struct {
	ty  event.Type
	oid types.OID
	at  clock.Time
}

// ParseFile loads a scenario.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{Name: filepath.Base(path)}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := raw
		if idx := strings.Index(line, "--"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		kind, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var err error
		switch kind {
		case "history":
			err = sc.parseHistory(rest)
		case "since":
			var n int64
			n, err = strconv.ParseInt(rest, 10, 64)
			sc.Since = clock.Time(n)
		case "ts", "active", "trigger", "affected", "times":
			err = sc.parseAssertion(kind, rest, lineNo)
		default:
			err = fmt.Errorf("unknown directive %q", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
	}
	return sc, nil
}

func (sc *Scenario) parseHistory(rest string) error {
	for _, tok := range strings.Fields(rest) {
		// <type>@<t>:<oid>, e.g. create(stock)@3:o1
		body, loc, ok := strings.Cut(tok, "@")
		if !ok {
			return fmt.Errorf("history entry %q lacks @", tok)
		}
		tPart, oPart, ok := strings.Cut(loc, ":")
		if !ok {
			return fmt.Errorf("history entry %q lacks :oid", tok)
		}
		e, err := lang.ParseExpr(body, "")
		if err != nil {
			return err
		}
		prim, okPrim := e.(calculus.Prim)
		if !okPrim {
			return fmt.Errorf("history entry %q is not a primitive event", tok)
		}
		at, err := strconv.ParseInt(tPart, 10, 64)
		if err != nil {
			return fmt.Errorf("bad instant in %q", tok)
		}
		oid, err := strconv.ParseInt(strings.TrimPrefix(oPart, "o"), 10, 64)
		if err != nil {
			return fmt.Errorf("bad oid in %q", tok)
		}
		sc.History = append(sc.History, historyRow{prim.T, types.OID(oid), clock.Time(at)})
	}
	return nil
}

// parseAssertion handles "<expr> <marker> = <want>" where the marker is
// the LAST occurrence of "@<t>", "now=<t>" or "obj=<oid> @<t>".
func (sc *Scenario) parseAssertion(kind, rest string, lineNo int) error {
	eqIdx := strings.LastIndex(rest, "=")
	if eqIdx < 0 {
		return fmt.Errorf("%s assertion lacks '='", kind)
	}
	want := strings.TrimSpace(rest[eqIdx+1:])
	head := strings.TrimSpace(rest[:eqIdx])

	d := Directive{Line: lineNo, Kind: kind}

	// Extract markers from the tail of head.
	switch kind {
	case "trigger":
		idx := strings.LastIndex(head, "now=")
		if idx < 0 {
			return fmt.Errorf("trigger assertion lacks now=")
		}
		n, err := strconv.ParseInt(strings.TrimSpace(head[idx+4:]), 10, 64)
		if err != nil {
			return fmt.Errorf("bad now= value")
		}
		d.At = clock.Time(n)
		head = strings.TrimSpace(head[:idx])
	case "times":
		atIdx := strings.LastIndex(head, "@")
		if atIdx < 0 {
			return fmt.Errorf("times assertion lacks @t")
		}
		n, err := strconv.ParseInt(strings.TrimSpace(head[atIdx+1:]), 10, 64)
		if err != nil {
			return fmt.Errorf("bad @t value")
		}
		d.At = clock.Time(n)
		head = strings.TrimSpace(head[:atIdx])
		objIdx := strings.LastIndex(head, "obj=")
		if objIdx < 0 {
			return fmt.Errorf("times assertion lacks obj=")
		}
		oid, err := strconv.ParseInt(strings.TrimPrefix(strings.TrimSpace(head[objIdx+4:]), "o"), 10, 64)
		if err != nil {
			return fmt.Errorf("bad obj= value")
		}
		d.OID = types.OID(oid)
		head = strings.TrimSpace(head[:objIdx])
	default: // ts, active, affected
		atIdx := strings.LastIndex(head, "@")
		if atIdx < 0 {
			return fmt.Errorf("%s assertion lacks @t", kind)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(head[atIdx+1:]), 10, 64)
		if err != nil {
			return fmt.Errorf("bad @t value")
		}
		d.At = clock.Time(n)
		head = strings.TrimSpace(head[:atIdx])
	}

	e, err := lang.ParseExpr(head, "")
	if err != nil {
		return fmt.Errorf("expression %q: %w", head, err)
	}
	d.Expr = e

	switch kind {
	case "ts":
		n, err := strconv.ParseInt(want, 10, 64)
		if err != nil {
			return fmt.Errorf("ts wants an integer, got %q", want)
		}
		d.WantInt = n
	case "active":
		b, err := strconv.ParseBool(want)
		if err != nil {
			return fmt.Errorf("active wants true/false, got %q", want)
		}
		d.WantBool = b
	case "trigger":
		if want == "none" {
			d.WantBool = false
		} else {
			fired := strings.TrimPrefix(want, "fired@")
			n, err := strconv.ParseInt(fired, 10, 64)
			if err != nil {
				return fmt.Errorf("trigger wants fired@<t> or none, got %q", want)
			}
			d.WantBool = true
			d.WantInt = n
		}
	case "affected", "times":
		if want != "none" {
			for _, part := range strings.Split(want, ",") {
				d.WantList = append(d.WantList, strings.TrimSpace(part))
			}
		}
	}
	sc.Directives = append(sc.Directives, d)
	return nil
}

// Failure describes one assertion mismatch.
type Failure struct {
	Line int
	Msg  string
}

// Run executes the scenario and returns the failures.
func (sc *Scenario) Run() ([]Failure, error) {
	base := event.NewBase()
	for _, row := range sc.History {
		if _, err := base.Append(row.ty, row.oid, row.at); err != nil {
			return nil, fmt.Errorf("%s: history: %w", sc.Name, err)
		}
	}
	env := &calculus.Env{Base: base, Since: sc.Since}
	var fails []Failure
	fail := func(line int, format string, args ...any) {
		fails = append(fails, Failure{Line: line, Msg: fmt.Sprintf(format, args...)})
	}
	for _, d := range sc.Directives {
		switch d.Kind {
		case "ts":
			if got := env.TS(d.Expr, d.At); int64(got) != d.WantInt {
				fail(d.Line, "ts(%s, %d) = %d, want %d", d.Expr, d.At, int64(got), d.WantInt)
			}
		case "active":
			if got := env.Active(d.Expr, d.At); got != d.WantBool {
				fail(d.Line, "active(%s, %d) = %v, want %v", d.Expr, d.At, got, d.WantBool)
			}
		case "trigger":
			ok, at := env.Triggered(d.Expr, d.At)
			if ok != d.WantBool {
				fail(d.Line, "trigger(%s, now=%d) fired=%v, want %v", d.Expr, d.At, ok, d.WantBool)
			} else if ok && int64(at) != d.WantInt {
				fail(d.Line, "trigger(%s) fired at %d, want %d", d.Expr, at, d.WantInt)
			}
		case "affected":
			got := env.AffectedObjects(d.Expr, d.At)
			gots := make([]string, len(got))
			for i, oid := range got {
				gots[i] = oid.String()
			}
			if strings.Join(gots, ",") != strings.Join(d.WantList, ",") {
				fail(d.Line, "affected(%s, %d) = %v, want %v", d.Expr, d.At, gots, d.WantList)
			}
		case "times":
			got := env.ActivationTimes(d.Expr, d.At, d.OID)
			gots := make([]string, len(got))
			for i, ts := range got {
				gots[i] = fmt.Sprintf("t%d", ts)
			}
			if strings.Join(gots, ",") != strings.Join(d.WantList, ",") {
				fail(d.Line, "times(%s, %s, %d) = %v, want %v", d.Expr, d.OID, d.At, gots, d.WantList)
			}
		}
	}
	return fails, nil
}
