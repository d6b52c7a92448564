package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 400_000

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call.
type span struct {
	Name  string // the call, e.g. "TrainStep", "RunGraph"
	Layer string // roll-up bucket, e.g. "train", "rpc.RunGraph"
	Lane  string // trace-viewer row
	// ID is shared by the spans of one step, push round or request.
	ID string
	// Key names this span as a parent candidate; ParentKey names the
	// candidates for its parent. The parent is the candidate whose
	// interval contains this span's start.
	Key, ParentKey string
	Start, End     time.Duration // since the tracer's epoch
	Parent         int           // index into the span list, -1 for a root
	Bytes          int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// record adds a finished span. It is safe for concurrent use.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	s.Parent = -1
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// reset drops the spans recorded so far (used after warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = nil, 0
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(s span, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	s.Start, s.End = t.since(start), t.since(time.Now())
	t.record(s)
}

// snapshot returns a copy of the recorded spans; parents are not linked
// yet, so a workload can fill in ParentKeys first.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// linkParents resolves each span's ParentKey to the candidate span with
// that Key whose interval contains the child's start.
func linkParents(spans []span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		cands := byKey[spans[i].ParentKey]
		if spans[i].ParentKey == "" || len(cands) == 0 {
			continue
		}
		start := spans[i].Start
		// The last candidate that started at or before the child.
		j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > start }) - 1
		if j >= 0 && j != i && spans[cands[j]].End >= start {
			spans[i].Parent = cands[j]
		}
	}
}

// rollupEntry is one layer's share of the traced time.
type rollupEntry struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	// Share is SelfMs over the summed self time of every layer.
	Share float64 `json:"share"`
}

// rollup computes each layer's self time: a span's duration minus the part
// of its interval covered by its child spans.
func rollup(spans []span) []rollupEntry {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*rollupEntry{}
	var total float64
	for i, s := range spans {
		self := s.End - s.Start - covered(spans, children[i], s.Start, s.End)
		e := agg[s.Layer]
		if e == nil {
			e = &rollupEntry{Layer: s.Layer}
			agg[s.Layer] = e
		}
		e.Spans++
		e.SelfMs += ms(self)
		total += ms(self)
	}
	out := make([]rollupEntry, 0, len(agg))
	for _, e := range agg {
		if total > 0 {
			e.Share = e.SelfMs / total
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			sum += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return sum + curB - curA
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Each lane becomes a thread row.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	var events []event
	for i, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Lane}})
		}
		args := map[string]any{"span": i}
		if s.ID != "" {
			args["id"] = s.ID
		}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: us(s.Start), Dur: max(us(s.End-s.Start), 0.001), Pid: 1, Tid: tid, Args: args})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
