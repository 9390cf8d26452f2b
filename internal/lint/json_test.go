package lint

import (
	"bytes"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestJSONRoundTrip is the schema fixture: a report with every field
// populated survives WriteJSON → ReadJSON unchanged, which is exactly what
// the lint-json CI smoke target asserts against live ftlint output.
func TestJSONRoundTrip(t *testing.T) {
	diags := []Diagnostic{
		{
			Pos:      token.Position{Filename: "a.go", Line: 10, Column: 2},
			Analyzer: "lockorder",
			Message:  "lock-order cycle (potential deadlock): a.mu → b.mu → a.mu",
			Witness: []WitnessStep{
				{Pos: token.Position{Filename: "a.go", Line: 9, Column: 2}, Note: "a.mu acquired"},
				{Pos: token.Position{Filename: "a.go", Line: 10, Column: 2}, Note: "b.mu acquired while a.mu held"},
			},
		},
		{
			Pos:          token.Position{Filename: "b.go", Line: 4, Column: 5},
			Analyzer:     "goleak",
			Message:      "goroutine has no termination edge",
			Suppressed:   true,
			SuppressedBy: "dedicated spinner, process lifetime",
		},
	}
	r := NewReport(All, diags)
	if r.Active != 1 {
		t.Fatalf("Active = %d, want 1", r.Active)
	}
	if len(r.Analyzers) != len(All) {
		t.Fatalf("Analyzers = %v, want one entry per analyzer", r.Analyzers)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("round-trip read: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("round-trip mismatch:\nwrote %+v\nread  %+v", r, got)
	}
}

// TestJSONValidation exercises the reader's schema checks: documents a
// consumer must never see are rejected, not silently accepted.
func TestJSONValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // error substring
	}{
		{"not json", "{", "lint report"},
		{"unknown field", `{"analyzers":[],"findings":[],"active":0,"extra":1}`, "unknown field"},
		{"missing analyzers", `{"findings":[],"active":0}`, "missing \"analyzers\""},
		{"missing findings", `{"analyzers":[],"active":0}`, "missing \"findings\""},
		{"no analyzer on finding", `{"analyzers":[],"findings":[{"file":"a.go","line":1,"col":1,"message":"m","suppressed":false}],"active":1}`, "has no analyzer"},
		{"no message", `{"analyzers":[],"findings":[{"analyzer":"goleak","file":"a.go","line":1,"col":1,"message":"","suppressed":false}],"active":1}`, "has no message"},
		{"negative position", `{"analyzers":[],"findings":[{"analyzer":"goleak","file":"a.go","line":-1,"col":1,"message":"m","suppressed":false}],"active":1}`, "negative position"},
		{"suppressed without reason", `{"analyzers":[],"findings":[{"analyzer":"goleak","file":"a.go","line":1,"col":1,"message":"m","suppressed":true}],"active":0}`, "suppressed without a reason"},
		{"witness without note", `{"analyzers":[],"findings":[{"analyzer":"goleak","file":"a.go","line":1,"col":1,"message":"m","witness":[{"file":"a.go","line":1,"col":1,"note":""}],"suppressed":false}],"active":1}`, "has no note"},
		{"active mismatch", `{"analyzers":[],"findings":[{"analyzer":"goleak","file":"a.go","line":1,"col":1,"message":"m","suppressed":false}],"active":0}`, "does not match"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(c.doc))
			if err == nil {
				t.Fatalf("ReadJSON accepted invalid document %s", c.doc)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestVerboseKeepsSuppressed asserts the -json view of a golden case keeps
// suppressed findings, marked with the written reason — the triage consumer
// sees what was waived.
func TestVerboseKeepsSuppressed(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(root)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "src", "ackorder"))
	if err != nil {
		t.Fatal(err)
	}
	verbose := CheckVerbose(ld.Fset, []*Package{pkg}, All)
	active := Check(ld.Fset, []*Package{pkg}, All)
	if len(verbose) <= len(active) {
		t.Fatalf("verbose (%d findings) should exceed active (%d): the suppressed ack must appear", len(verbose), len(active))
	}
	found := false
	for _, d := range verbose {
		if d.Suppressed {
			found = true
			if d.Analyzer != "ackorder" {
				t.Errorf("suppressed finding from %q, want ackorder", d.Analyzer)
			}
			if !strings.Contains(d.SuppressedBy, "golden suppressed case") {
				t.Errorf("SuppressedBy = %q, want the directive's written reason", d.SuppressedBy)
			}
		}
	}
	if !found {
		t.Error("no suppressed finding in the verbose view")
	}
}
