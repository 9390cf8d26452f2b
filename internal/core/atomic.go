package core

import "sync/atomic"

// Small helpers for the baseline executor's plain-int32 fields; the FT
// executor uses sync/atomic types directly in its Task type, but the baseline
// keeps its descriptor a close transcription of the paper's field list.

func storeInt32(p *int32, v int32) { atomic.StoreInt32(p, v) }

func addInt32(p *int32, d int32) int32 { return atomic.AddInt32(p, d) }

func loadStatus(p *int32) Status { return Status(atomic.LoadInt32(p)) }

func storeStatus(p *int32, s Status) { atomic.StoreInt32(p, int32(s)) }
