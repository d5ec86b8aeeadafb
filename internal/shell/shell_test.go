package shell

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chimera"
	"chimera/internal/calculus"
	"chimera/internal/rules"
)

func newShell(t *testing.T) (*Shell, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return New(chimera.OpenWith(InteractiveOptions()), &buf), &buf
}

// RunScript feeds a multi-line script through the session, accumulating
// define blocks, and stops at the first error.
func (s *Shell) RunScript(src string) error {
	var block strings.Builder
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if block.Len() == 0 && (line == "" || strings.HasPrefix(line, "--")) {
			continue
		}
		block.WriteString(line)
		block.WriteString("\n")
		if NeedsMore(block.String()) {
			continue
		}
		cmd := block.String()
		block.Reset()
		if err := s.Execute(cmd); err != nil {
			return err
		}
	}
	if block.Len() > 0 {
		return fmt.Errorf("shell: unterminated define block")
	}
	return nil
}

const setup = `
class stock(name: string, quantity: integer, maxquantity: integer)

define checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end
`

func TestScriptEndToEnd(t *testing.T) {
	sh, out := newShell(t)
	script := setup + `
begin
create stock(name = "bolts", quantity = 99, maxquantity = 40)
show objects
commit
show stats
`
	if err := sh.RunScript(script); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"created o1",
		`quantity: 40`, // clamped by the rule before "show objects" ran
		"committed",
		"rule executions 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestAutoCommitOutsideTransaction(t *testing.T) {
	sh, _ := newShell(t)
	if err := sh.RunScript(setup); err != nil {
		t.Fatal(err)
	}
	// A bare data command runs in its own transaction.
	if err := sh.Execute(`create stock(name = "x", quantity = 90, maxquantity = 10)`); err != nil {
		t.Fatal(err)
	}
	if sh.InTransaction() {
		t.Fatal("auto-commit left a transaction open")
	}
	oids, _ := sh.db.Store().Select("stock")
	if len(oids) != 1 {
		t.Fatalf("objects = %v", oids)
	}
	o, _ := sh.db.Store().Get(oids[0])
	if o.MustGet("quantity").AsInt() != 10 {
		t.Error("rule did not run in the auto transaction")
	}
}

func TestRollbackDiscards(t *testing.T) {
	sh, _ := newShell(t)
	if err := sh.RunScript(setup + `
begin
create stock(name = "y", quantity = 5, maxquantity = 10)
rollback
`); err != nil {
		t.Fatal(err)
	}
	if sh.db.Store().Len() != 0 {
		t.Fatal("rollback kept objects")
	}
}

func TestModifyDeleteSelect(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.RunScript(setup + `
begin
create stock(name = "a", quantity = 1, maxquantity = 10)
create stock(name = "b", quantity = 2, maxquantity = 10)
modify o1.quantity = 7
select stock
delete o2
commit
`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantity: 7") {
		t.Errorf("select output missing modified value:\n%s", out.String())
	}
	if sh.db.Store().Len() != 1 {
		t.Fatal("delete did not apply")
	}
}

func TestShowRulesAndEvents(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.RunScript(setup); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute("show rules"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkStockQty [immediate, consuming, priority 0]") {
		t.Errorf("show rules output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "V(E)") {
		t.Error("show rules must print the compiled variation set")
	}
	// show events requires a transaction.
	if err := sh.Execute("show events"); err == nil {
		t.Error("show events outside a transaction accepted")
	}
	out.Reset()
	if err := sh.RunScript("begin\ncreate stock(quantity = 1, maxquantity = 5)\nshow events\nrollback"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "create(stock)") {
		t.Errorf("show events output:\n%s", out.String())
	}
}

func TestShowObject(t *testing.T) {
	sh, out := newShell(t)
	sh.RunScript(setup)
	sh.Execute(`create stock(name = "z", quantity = 3, maxquantity = 5)`)
	out.Reset()
	if err := sh.Execute("show o1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `name: "z"`) {
		t.Errorf("show o1 output:\n%s", out.String())
	}
	if err := sh.Execute("show o99"); err == nil {
		t.Error("show of missing object accepted")
	}
}

func TestDropRule(t *testing.T) {
	sh, _ := newShell(t)
	sh.RunScript(setup)
	if err := sh.Execute("drop rule checkStockQty"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute(`create stock(quantity = 99, maxquantity = 1)`); err != nil {
		t.Fatal(err)
	}
	o, _ := sh.db.Store().Get(1)
	if o.MustGet("quantity").AsInt() != 99 {
		t.Error("dropped rule still ran")
	}
	if err := sh.Execute("drop rule checkStockQty"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newShell(t)
	sh.RunScript(setup)
	cases := []string{
		"commit",                  // no transaction
		"rollback",                // no transaction
		"begin extra",             // trailing garbage
		"create ghost",            // unknown class
		"modify o9.x = 1",         // missing object
		"show nonsense",           // unknown inspection
		"frobnicate",              // unknown command
		"class stock(a: integer)", // duplicate class
	}
	for _, src := range cases {
		if err := sh.Execute(src); err == nil {
			t.Errorf("Execute(%q) accepted", src)
		}
	}
	// begin twice.
	if err := sh.Execute("begin"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute("begin"); err == nil {
		t.Error("nested begin accepted")
	}
	sh.Close()
	if sh.InTransaction() {
		t.Error("Close left the transaction open")
	}
}

func TestNeedsMore(t *testing.T) {
	if !NeedsMore("define r for stock\nevents create\n") {
		t.Error("open define block not detected")
	}
	if NeedsMore("define r for stock events create end") {
		t.Error("closed block reported open")
	}
	if NeedsMore("create stock(quantity = 1)") {
		t.Error("plain command reported open")
	}
}

func TestUnterminatedScript(t *testing.T) {
	sh, _ := newShell(t)
	err := sh.RunScript("class stock(a: integer)\ndefine r for stock\nevents create\n")
	if err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("err = %v", err)
	}
}

func TestSaveLoadCommands(t *testing.T) {
	sh, out := newShell(t)
	sh.RunScript(setup)
	sh.Execute(`create stock(name = "k", quantity = 3, maxquantity = 5)`)
	path := t.TempDir() + "/snap.json"
	if err := sh.Execute("save " + path); err != nil {
		t.Fatal(err)
	}
	// Mutate, then load the snapshot back: the mutation is gone.
	sh.Execute("delete o1")
	if sh.db.Store().Len() != 0 {
		t.Fatal("delete did not apply")
	}
	if err := sh.Execute("load " + path); err != nil {
		t.Fatal(err)
	}
	if sh.db.Store().Len() != 1 {
		t.Fatal("load did not restore the object")
	}
	// The restored rule set still runs.
	out.Reset()
	if err := sh.Execute("show rules"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkStockQty") {
		t.Error("restored database lost the rule")
	}
	// Guard rails.
	sh.Execute("begin")
	if err := sh.Execute("save " + path); err == nil {
		t.Error("save inside a transaction accepted")
	}
	sh.Execute("rollback")
	if err := sh.Execute("load /nonexistent/x.json"); err == nil {
		t.Error("load of missing file accepted")
	}
}

func TestShowAnalysis(t *testing.T) {
	sh, out := newShell(t)
	sh.RunScript(setup)
	if err := sh.Execute("show analysis"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "terminates (acyclic triggering graph)") {
		t.Errorf("analysis output:\n%s", out.String())
	}
	// A self-feeding rule flips the verdict.
	if err := sh.Execute(`define loop for stock
events create
condition occurred(create, S)
action create(stock, quantity = 1)
end`); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	sh.Execute("show analysis")
	if !strings.Contains(out.String(), "POTENTIALLY NON-TERMINATING") {
		t.Errorf("analysis output:\n%s", out.String())
	}
}

func TestSelectWhere(t *testing.T) {
	sh, out := newShell(t)
	sh.RunScript(setup)
	sh.RunScript(`
begin
create stock(name = "a", quantity = 5, maxquantity = 10)
create stock(name = "b", quantity = 20, maxquantity = 30)
create stock(name = "c", quantity = 30, maxquantity = 30)
commit`)
	out.Reset()
	if err := sh.Execute("select stock where quantity > 5, quantity < maxquantity"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `name: "b"`) {
		t.Errorf("where clause missed b:\n%s", got)
	}
	if strings.Contains(got, `name: "a"`) || strings.Contains(got, `name: "c"`) {
		t.Errorf("where clause leaked rows:\n%s", got)
	}
	// Bad predicates error.
	if err := sh.Execute("select stock where ghost > 5"); err == nil {
		t.Error("unknown attribute in where accepted")
	}
	if err := sh.Execute("select stock where quantity >"); err == nil {
		t.Error("dangling comparison accepted")
	}
}

func TestExplainCommand(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.RunScript(setup + `
define deferred audit for stock
events create + -delete
end
`); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute("explain checkStockQty"); err == nil {
		t.Error("explain outside a transaction accepted")
	}
	sh.Execute("begin")
	sh.Execute(`create stock(name = "e", quantity = 99, maxquantity = 5)`)
	out.Reset()
	if err := sh.Execute("explain checkStockQty"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// The rule was already considered at the end of the create line, so
	// its window is empty again.
	if !strings.Contains(got, "rule checkStockQty") || !strings.Contains(got, "window R") {
		t.Errorf("explain output:\n%s", got)
	}

	// The deferred rule the line triggered waits for the commit: explain
	// prints the engine's verdict, at the instant the definition finds.
	out.Reset()
	if err := sh.Execute("explain audit"); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	st, _ := sh.db.Support().Rule("audit")
	m := lineMark(t, sh, "audit")
	if !m.Triggered {
		t.Fatal("rule audit is not triggered")
	}
	env := calculus.Env{Base: sh.txn.Base(), Since: m.LastConsideration}
	ok, at := env.Triggered(st.Def.Event, sh.db.Clock().Now())
	if !ok || !strings.Contains(got, "TRIGGERED") || !strings.Contains(got, fmt.Sprintf("t' = t%d ", at)) {
		t.Errorf("explain of a triggered deferred rule (definition: %v at t%d):\n%s", ok, at, got)
	}

	if err := sh.Execute("explain ghost"); err == nil {
		t.Error("explain of unknown rule accepted")
	}
	sh.Execute("rollback")
}

// lineMark is one rule's mark on the shell's open transaction line.
func lineMark(t *testing.T, sh *Shell, rule string) rules.Mark {
	t.Helper()
	marks, err := sh.txn.Marks()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range marks {
		if m.Rule == rule {
			return m
		}
	}
	t.Fatalf("no mark for rule %s", rule)
	return rules.Mark{}
}

// show rules and explain read the open transaction line, whatever the
// number of lines the database allows: a deferred rule the line
// triggered shows TRIGGERED, and explain opens its window at the rule's
// horizon on that line.
func TestShowRulesAndExplainReadTheLine(t *testing.T) {
	for _, sessions := range []int{1, 4} {
		opts := InteractiveOptions()
		opts.MaxSessions = sessions
		var out bytes.Buffer
		sh := New(chimera.OpenWith(opts), &out)
		if err := sh.RunScript(setup + `
define deferred audit for stock
events create
end
begin
create stock(name = "e", quantity = 99, maxquantity = 5)
`); err != nil {
			t.Fatal(err)
		}
		if !lineMark(t, sh, "audit").Triggered {
			t.Fatalf("MaxSessions %d: the line did not trigger audit", sessions)
		}
		out.Reset()
		if err := sh.Execute("show rules"); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); !strings.Contains(got, "audit [deferred, consuming, priority 0] TRIGGERED\n") ||
			strings.Count(got, "TRIGGERED") != 1 {
			t.Errorf("MaxSessions %d: show rules printed\n%s", sessions, got)
		}
		// checkStockQty was considered at the end of the create line: its
		// horizon is that instant, not the transaction's start.
		m := lineMark(t, sh, "checkStockQty")
		out.Reset()
		if err := sh.Execute("explain checkStockQty"); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("window R = (t%d, t%d]", m.LastConsideration, sh.db.Clock().Now())
		if m.LastConsideration == 0 || !strings.Contains(out.String(), want) {
			t.Errorf("MaxSessions %d: explain printed\n%s\nwant %s", sessions, out.String(), want)
		}
		sh.Execute("rollback")
	}
}

// Golden sessions: scripted inputs under testdata/ must produce exactly
// the recorded output.
func TestGoldenSessions(t *testing.T) {
	sessions, err := filepath.Glob("testdata/*.session")
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) < 3 {
		t.Fatalf("golden corpus missing (found %d sessions)", len(sessions))
	}
	for _, session := range sessions {
		session := session
		t.Run(filepath.Base(session), func(t *testing.T) {
			script, err := os.ReadFile(session)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(strings.TrimSuffix(session, ".session") + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			sh, out := newShell(t)
			if err := sh.RunScript(string(script)); err != nil {
				t.Fatalf("session error: %v\noutput so far:\n%s", err, out.String())
			}
			if got := out.String(); got != string(golden) {
				t.Errorf("golden mismatch:\n--- got\n%s--- want\n%s", got, golden)
			}
		})
	}
}

func TestShowStream(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.Execute("show stream"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no stream session") {
		t.Fatalf("idle database should report no stream activity:\n%s", out.String())
	}

	// Run a stream session over the shell's database, then render it.
	s, err := chimera.OpenStream(sh.db, chimera.StreamOptions{
		MaxBatch: 4,
		Clock:    chimera.NewManualClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Raise("pulse"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := sh.Execute("show stream"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"enqueued 10", "ingested 10", "refused batches 0", "batch size", "sweep lag",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("show stream missing %q:\n%s", want, got)
		}
	}

	// No registry at all: the command should refuse, not render zeros.
	bare := New(chimera.Open(), out)
	if err := bare.Execute("show stream"); err == nil {
		t.Fatal("show stream without a metrics registry should error")
	}
}

func TestBeginRead(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.RunScript(setup + `
create stock(name = "bolts", quantity = 10, maxquantity = 40)
begin read
`); err != nil {
		t.Fatal(err)
	}
	if !sh.InTransaction() {
		t.Fatal("begin read did not open a transaction")
	}
	// The snapshot is pinned: a concurrent commit (simulated via the
	// engine directly — the shell's line is read-only) stays invisible.
	if err := sh.db.Run(func(tx *chimera.Txn) error {
		return tx.Modify(1, "quantity", chimera.Int(33))
	}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := sh.Execute("select stock"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantity: 10") {
		t.Errorf("read txn saw past its pinned epoch:\n%s", out.String())
	}

	// Writes fail with the typed sentinel.
	err := sh.Execute(`create stock(name = "nuts", quantity = 1, maxquantity = 2)`)
	if !errors.Is(err, chimera.ErrReadOnly) {
		t.Errorf("create inside begin read = %v, want ErrReadOnly", err)
	}
	if err := sh.Execute("modify o1.quantity = 5"); !errors.Is(err, chimera.ErrReadOnly) {
		t.Errorf("modify inside begin read = %v, want ErrReadOnly", err)
	}

	// A where filter evaluates against the snapshot, not the live store.
	out.Reset()
	if err := sh.Execute("select stock where quantity > 5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantity: 10") {
		t.Errorf("where filter did not run on the snapshot:\n%s", out.String())
	}
	out.Reset()
	if err := sh.Execute("select stock where quantity > 20"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "stock") {
		t.Errorf("where filter matched the live value through the snapshot:\n%s", out.String())
	}

	// commit (or rollback) just closes the handle; a fresh read sees the
	// new state.
	if err := sh.Execute("commit"); err != nil {
		t.Fatal(err)
	}
	if sh.InTransaction() {
		t.Fatal("commit left the read transaction open")
	}
	out.Reset()
	if err := sh.RunScript("begin read\nselect stock\nrollback\n"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "quantity: 33") {
		t.Errorf("fresh read txn missed the committed value:\n%s", out.String())
	}
}

func TestShowStatsReadTxns(t *testing.T) {
	sh, out := newShell(t)
	if err := sh.RunScript(setup + "begin read\ncommit\nshow stats\n"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "read txn(s) served") {
		t.Errorf("show stats missing snapshot line:\n%s", out.String())
	}
}
