package core

import (
	"fmt"
	"sort"
	"strings"

	"ftdag/internal/graph"
)

// DumpStuck renders the state of up to max incomplete tasks — key, life,
// status, outstanding notifications (FT-NABBIT's bits, NABBIT's join counter:
// the task runs when they reach 0), flags, and notify array length. A correct
// execution always drains (Lemma 3), so this is attached to timeout errors as
// the first diagnostic a developer reaches for when an experimental spec
// misbehaves.
func (e *exec[S]) DumpStuck(max int) string {
	type row struct {
		key  graph.Key
		line string
	}
	var rows []row
	total := 0
	e.tasks.Range(func(k int64, t *task[S]) bool {
		if t.Status() == Completed {
			return true
		}
		total++
		if len(rows) < max {
			t.mu.Lock()
			notify := len(t.notify)
			t.mu.Unlock()
			var join string
			if t.shaded() {
				join = fmt.Sprintf("bits=%d/%d poisoned=%v overwritten=%v",
					t.ft().bits.Count(), t.ft().bits.Len(), t.has(poisoned), t.has(overwritten))
			} else {
				join = fmt.Sprintf("join=%d/%d", t.nabbit().join.Load(), len(t.preds)+1)
			}
			rows = append(rows, row{key: k, line: fmt.Sprintf(
				"  task %d life=%d status=%v %s notify=%d", k, t.Life(), t.Status(), join, notify)})
		}
		return true
	})
	if total == 0 {
		return "no incomplete tasks"
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d incomplete task(s) of %d in table:\n", total, e.tasks.Len())
	for _, r := range rows {
		sb.WriteString(r.line)
		sb.WriteByte('\n')
	}
	if total > len(rows) {
		fmt.Fprintf(&sb, "  … and %d more\n", total-len(rows))
	}
	return sb.String()
}
