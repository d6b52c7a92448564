package distributed

import (
	"fmt"
	"sync"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// This file is the parameter-server side of PS-applied optimization: the
// update rule lives next to the variables it updates (the design of the
// preliminary whitepaper's parameter-server, and of §4.4's queue-coordinated
// sync training, with the barrier moved from the chief to the shard).
// Workers push raw gradients — dense tensors or sparse (indices, values)
// pairs — tagged with an absolute round number; the shard accumulates one
// round's contributions, applies the configured rule (the routine behind
// the graph's Apply<Rule> training ops) once m fresh contributions arrive
// (m-of-n backup-worker semantics, Figure 4c), and releases every pusher
// blocked on that round. Rounds at or below the last applied round
// acknowledge immediately, which is what makes the RPC idempotent under
// retransmits, duplicates and lost responses.

// psRound accumulates one round's gradient contributions on a shard.
type psRound struct {
	contrib  map[string]bool // origin task → contributed (dedup)
	rule     ops.UpdateRule
	numFresh int
	stepName string
	// dense sums, by variable name.
	dense map[string]*tensor.Tensor
	// sparse row sums: variable name → row index → summed row values.
	sparse map[string]map[int][]float64
	// rowWidth remembers each sparse variable's row width.
	rowWidth map[string]int
	waiters  []chan pushResult
}

type pushResult struct {
	round   int64
	applied bool
	err     error
}

// psAggregator is the per-worker round-tagged aggregation queue (§4.4,
// Figure 4b/4c): the synchronization barrier, resident at the shard.
type psAggregator struct {
	mu      sync.Mutex
	applied int64 // highest round already applied; -1 before any
	pending map[int64]*psRound
	aborted chan struct{}
}

func newPSAggregator() *psAggregator {
	return &psAggregator{
		applied: -1,
		pending: map[int64]*psRound{},
		aborted: make(chan struct{}),
	}
}

// reset clears aggregation state (task restart).
func (a *psAggregator) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applied = -1
	for r, rd := range a.pending {
		for _, ch := range rd.waiters {
			ch <- pushResult{err: fmt.Errorf("distributed: %w: aggregator reset", ErrUnavailable)}
		}
		delete(a.pending, r)
	}
}

// abortAll wakes every blocked pusher with a retryable error (server
// shutdown). The aggregator stays usable; only the waiters are released.
func (a *psAggregator) abortAll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, rd := range a.pending {
		for _, ch := range rd.waiters {
			ch <- pushResult{err: fmt.Errorf("distributed: %w: push aborted by shutdown", ErrUnavailable)}
		}
		rd.waiters = nil
	}
}

// PushGradients implements the service: accumulate the caller's
// contribution to its round and block until the round is applied (or until
// the caller aborts / the server shuts down). Rounds already applied
// acknowledge immediately — the idempotence that makes retransmits and
// duplicate deliveries harmless.
func (w *Worker) PushGradients(req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	return w.agg.push(w.dev.Resources(), req, abort)
}

func (a *psAggregator) push(res ResourceHolder, req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	if err := req.Rule.Validate(); err != nil {
		return nil, err
	}
	if req.NumFresh <= 0 {
		return nil, fmt.Errorf("distributed: PushGradients needs NumFresh > 0")
	}
	a.mu.Lock()
	if req.Round <= a.applied {
		// Stale or retransmitted round: already applied here. Ack without
		// touching state.
		applied := a.applied
		a.mu.Unlock()
		return &PushGradientsResp{Round: applied, Applied: false}, nil
	}
	rd, ok := a.pending[req.Round]
	if !ok {
		rd = &psRound{
			contrib:  map[string]bool{},
			rule:     req.Rule,
			numFresh: req.NumFresh,
			stepName: req.StepName,
			dense:    map[string]*tensor.Tensor{},
			sparse:   map[string]map[int][]float64{},
			rowWidth: map[string]int{},
		}
		a.pending[req.Round] = rd
	}
	if !rd.contrib[req.Origin] {
		rd.contrib[req.Origin] = true
		if err := rd.accumulate(req.Grads); err != nil {
			delete(rd.contrib, req.Origin)
			a.mu.Unlock()
			return nil, err
		}
	}
	// Whether this was a fresh contribution or an in-flight duplicate, the
	// caller waits for the round to apply.
	ch := make(chan pushResult, 1)
	rd.waiters = append(rd.waiters, ch)
	var applyErr error
	if len(rd.contrib) >= rd.numFresh {
		applyErr = a.applyLocked(res, req.Round, rd)
	}
	a.mu.Unlock()
	if applyErr != nil {
		// applyLocked already broadcast the error to every waiter,
		// including ours; drain it so the channel logic stays uniform.
		<-ch
		return nil, applyErr
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		return &PushGradientsResp{Round: r.round, Applied: r.applied}, nil
	case <-abort:
		return nil, fmt.Errorf("distributed: PushGradients aborted")
	case <-a.aborted:
		return nil, fmt.Errorf("distributed: %w: push aborted by shutdown", ErrUnavailable)
	}
}

// accumulate folds one worker's gradients into the round's sums. Caller
// holds a.mu.
func (rd *psRound) accumulate(grads []GradientPush) error {
	for _, g := range grads {
		switch {
		case g.Dense != nil:
			if sum, ok := rd.dense[g.Name]; ok {
				if sum.NumElements() != g.Dense.NumElements() {
					return fmt.Errorf("distributed: gradient shape mismatch for %q", g.Name)
				}
				for i, n := 0, sum.NumElements(); i < n; i++ {
					sum.SetFloat(i, sum.FloatAt(i)+g.Dense.FloatAt(i))
				}
			} else {
				rd.dense[g.Name] = g.Dense.Clone()
			}
		case g.Indices != nil && g.Values != nil:
			rows, ok := rd.sparse[g.Name]
			if !ok {
				rows = map[int][]float64{}
				rd.sparse[g.Name] = rows
			}
			n := g.Indices.NumElements()
			if n == 0 {
				continue
			}
			width := g.Values.NumElements() / n
			rd.rowWidth[g.Name] = width
			for i := 0; i < n; i++ {
				row := g.Indices.IntAt(i)
				sum := rows[row]
				if sum == nil {
					sum = make([]float64, width)
					rows[row] = sum
				}
				for j := 0; j < width; j++ {
					sum[j] += g.Values.FloatAt(i*width + j)
				}
			}
		default:
			return fmt.Errorf("distributed: gradient for %q has neither dense nor sparse payload", g.Name)
		}
	}
	return nil
}

// ResourceHolder is the slice of the device resource manager the aggregator
// needs: variable lookup by name.
type ResourceHolder interface {
	FindOrCreateVariable(name string, dt tensor.DType, shape tensor.Shape) *ops.Variable
}

// applyLocked applies one complete round: divide the sums by numFresh and
// run the update rule against the resident variables, then advance the
// global step (an idempotent SET to round+1, not an increment) and release
// every waiter whose round is now at or below the applied round. Caller
// holds a.mu.
func (a *psAggregator) applyLocked(res ResourceHolder, round int64, rd *psRound) error {
	err := applyRound(res, round, rd)
	if err != nil {
		for _, ch := range rd.waiters {
			ch <- pushResult{err: err}
		}
		delete(a.pending, round)
		return err
	}
	a.applied = round
	// Release this round's waiters and any straggler blocked on an older
	// round that can no longer complete (its contributions are stale).
	for r, prd := range a.pending {
		if r > a.applied {
			continue
		}
		for _, ch := range prd.waiters {
			ch <- pushResult{round: a.applied, applied: r == round}
		}
		delete(a.pending, r)
	}
	return nil
}

// applyRound runs the update rule on every variable in the round, through
// the same kernels the graph's training ops use. Round k is the rule's
// (k+1)-th update, which is Adam's bias-correction step.
func applyRound(res ResourceHolder, round int64, rd *psRound) error {
	m := float64(rd.numFresh)
	step := round + 1
	for name, sum := range rd.dense {
		v, slots, err := stateFor(res, rd.rule, name)
		if err != nil {
			return err
		}
		mean := tensor.New(v.DType(), sum.Shape())
		for i := range mean.NumElements() {
			mean.SetFloat(i, sum.FloatAt(i)/m)
		}
		if err := rd.rule.Apply(step, v, slots, nil, mean); err != nil {
			return fmt.Errorf("distributed: applying %q: %w", name, err)
		}
	}
	for name, rows := range rd.sparse {
		v, slots, err := stateFor(res, rd.rule, name)
		if err != nil {
			return err
		}
		width := rd.rowWidth[name]
		indices := tensor.New(tensor.Int64, tensor.Shape{len(rows)})
		values := tensor.New(v.DType(), tensor.Shape{len(rows), width})
		k := 0
		for row, sum := range rows {
			indices.Int64s()[k] = int64(row)
			for j, s := range sum {
				values.SetFloat(k*width+j, s/m)
			}
			k++
		}
		if !rd.rule.HasSparse() {
			// The rule has no row-sparse form: apply it to the densified
			// mean, as a single session applies a densified gradient.
			dense := tensor.New(v.DType(), v.Shape())
			if err := tensor.ScatterAddInPlace(dense, indices, values); err != nil {
				return fmt.Errorf("distributed: sparse push for %q: %w", name, err)
			}
			indices, values = nil, dense
		}
		if err := rd.rule.Apply(step, v, slots, indices, values); err != nil {
			return fmt.Errorf("distributed: applying %q: %w", name, err)
		}
	}
	if rd.stepName != "" {
		gs := res.FindOrCreateVariable(rd.stepName, tensor.Int32, tensor.ScalarShape())
		// SET to the absolute post-round step, not an increment: replayed or
		// re-pushed rounds land on the same step value.
		if err := gs.Assign(tensor.ScalarInt(int32(round + 1))); err != nil {
			return fmt.Errorf("distributed: advancing %q: %w", rd.stepName, err)
		}
	}
	return nil
}

// stateFor locates a pushed variable and its rule's slot variables, lazily
// initializing the slots under the names the client's graph also declares,
// so checkpoints and restores see one namespace.
func stateFor(res ResourceHolder, rule ops.UpdateRule, name string) (*ops.Variable, []*ops.Variable, error) {
	v := res.FindOrCreateVariable(name, tensor.Float32, nil)
	if !v.Initialized() {
		return nil, nil, fmt.Errorf("distributed: push for uninitialized variable %q", name)
	}
	var slots []*ops.Variable
	for _, slotName := range rule.Slots() {
		slot := res.FindOrCreateVariable(name+"/"+slotName, v.DType(), v.Shape())
		if !slot.Initialized() {
			if err := slot.Assign(tensor.Fill(v.DType(), v.Shape(), rule.SlotFill())); err != nil {
				return nil, nil, err
			}
		}
		slots = append(slots, slot)
	}
	return v, slots, nil
}
