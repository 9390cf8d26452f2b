package core

import "time"

// inject poisons the task descriptor (and, when withBlock is set, the output
// block version the incarnation has written). Once the descriptor is
// poisoned another thread may recover the incarnation, and its recovery may
// rewrite the version before Corrupt runs: Corrupt names the incarnation, so
// the recovery's clean version is left alone.
func (e *exec[S]) inject(w worker, t *task[S], withBlock bool) {
	if e.cfg.Spans != nil {
		e.emitSpan("inject", time.Now(), 0, t.key, t.Life(), boolArg(withBlock))
	}
	t.mark(poisoned)
	if withBlock {
		if h := e.hooks.onInject; h != nil {
			h(w, t.key, t.Life())
		}
		e.store.Corrupt(t.out.Block, t.out.Version, t.Life())
	}
	e.met.at(w).injections.Add(1)
}
