package ops

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerTrainingOps()
}

// Optimizer update rules (§4.1). Each rule's arithmetic is written once, as
// a routine over one row of a variable and its slots, generic over the
// variable's float dtype. The same routine serves the graph's training ops —
// Apply<Rule> on a dense gradient, SparseApply<Rule> on (indices, values) —
// and the parameter-server shard, which applies pushed gradients next to the
// variables they update (the parameter-server design of the preliminary
// whitepaper).
//
// Every intermediate is written through an explicit conversion to the
// variable's dtype, which keeps the compiler from fusing a multiply-add.
// Each operation then rounds exactly as the float32 elementwise kernels
// (float64 arithmetic, rounded per op) do, so a rule gives bit for bit the
// result of the same formula built from elementwise graph ops in the same
// order.

// UpdateRule is an optimizer's serializable spec: Algo selects the rule and
// the scalar fields parameterize it. A worker ships it to a PS shard with
// every gradient push; the graph's training ops carry the same fields as
// attributes.
type UpdateRule struct {
	Algo         string // "sgd", "momentum", "adagrad", "rmsprop", "adadelta" or "adam"
	LearningRate float64
	Decay        float64 // momentum μ; RMSProp and Adadelta ρ; Adam β1
	Decay2       float64 // Adam β2
	Epsilon      float64 // RMSProp, Adadelta and Adam
	InitialAccum float64 // Adagrad's accumulator start value
}

// ruleDef is one row of the rule table the training ops are registered
// from.
type ruleDef struct {
	op     string   // op-name suffix: Apply<op>, SparseApply<op>
	slots  []string // slot-variable suffixes (<var>/<slot>), in input order
	sparse bool     // has a row-sparse form
	step   bool     // takes the 1-based update count (bias correction)
}

var ruleDefs = map[string]ruleDef{
	"sgd":      {op: "SGD", sparse: true},
	"momentum": {op: "Momentum", slots: []string{"momentum"}, sparse: true},
	"adagrad":  {op: "Adagrad", slots: []string{"adagrad"}, sparse: true},
	"rmsprop":  {op: "RMSProp", slots: []string{"rms"}},
	"adadelta": {op: "Adadelta", slots: []string{"adadelta_g", "adadelta_x"}},
	"adam":     {op: "Adam", slots: []string{"adam_m", "adam_v"}, step: true},
}

// Validate checks the rule is one of the built-in rules.
func (r UpdateRule) Validate() error {
	if _, ok := ruleDefs[r.Algo]; !ok {
		return fmt.Errorf("ops: unknown update rule %q", r.Algo)
	}
	return nil
}

// Slots returns the slot-variable suffixes the rule keeps next to each
// variable, in the order Apply takes them.
func (r UpdateRule) Slots() []string { return ruleDefs[r.Algo].slots }

// SlotFill is the value a fresh slot starts from.
func (r UpdateRule) SlotFill() float64 {
	if r.Algo == "adagrad" {
		return r.InitialAccum
	}
	return 0
}

// HasSparse reports whether the rule has a row-sparse form. Rules without
// one apply to the densified gradient.
func (r UpdateRule) HasSparse() bool { return ruleDefs[r.Algo].sparse }

// OpType names the rule's training op: SparseApply<Rule> for a sparse
// gradient, Apply<Rule> otherwise.
func (r UpdateRule) OpType(sparse bool) string {
	if sparse {
		return "SparseApply" + ruleDefs[r.Algo].op
	}
	return "Apply" + ruleDefs[r.Algo].op
}

// Attrs returns the rule's hyperparameters as training-op attributes.
func (r UpdateRule) Attrs() map[string]any {
	return map[string]any{
		"learning_rate": r.LearningRate,
		"decay":         r.Decay,
		"decay2":        r.Decay2,
		"epsilon":       r.Epsilon,
	}
}

// Apply runs the rule on variable v and its slot variables (in Slots
// order), holding every write lock for the whole update. With indices nil,
// grad is the dense gradient of all of v. Otherwise grad holds one row per
// index, duplicate indices are summed first, and only those rows of v and
// its slots change. step is the 1-based update count; only Adam's bias
// correction reads it.
func (r UpdateRule) Apply(step int64, v *Variable, slots []*Variable, indices, grad *tensor.Tensor) error {
	return updateTogether(append([]*Variable{v}, slots...), func(ts []*tensor.Tensor) error {
		return r.applyTensors(step, ts[0], ts[1:], indices, grad)
	})
}

// updateTogether runs fn on the live buffers of vars under their write
// locks, taken in slice order: a variable before its slots, so two appliers
// of one variable cannot deadlock.
func updateTogether(vars []*Variable, fn func(ts []*tensor.Tensor) error) error {
	ts := make([]*tensor.Tensor, len(vars))
	var lock func(i int) error
	lock = func(i int) error {
		if i == len(vars) {
			return fn(ts)
		}
		return vars[i].Update(func(cur *tensor.Tensor) (*tensor.Tensor, error) {
			ts[i] = cur
			return cur, lock(i + 1)
		})
	}
	return lock(0)
}

func (r UpdateRule) applyTensors(step int64, w *tensor.Tensor, slots []*tensor.Tensor, indices, grad *tensor.Tensor) error {
	if err := r.Validate(); err != nil {
		return err
	}
	dt := w.DType()
	if dt != tensor.Float32 && dt != tensor.Float64 {
		return fmt.Errorf("ops: %s needs a float32 or float64 variable, got %v", r.Algo, dt)
	}
	if len(slots) != len(r.Slots()) {
		return fmt.Errorf("ops: %s needs %d slots, got %d", r.Algo, len(r.Slots()), len(slots))
	}
	for _, s := range slots {
		if s.DType() != dt || !s.Shape().Equal(w.Shape()) {
			return fmt.Errorf("ops: %s slot %v%v does not match variable %v%v", r.Algo, s.DType(), s.Shape(), dt, w.Shape())
		}
	}
	if grad.DType() != dt {
		return fmt.Errorf("ops: %s gradient dtype %v does not match variable %v", r.Algo, grad.DType(), dt)
	}
	if indices == nil {
		if grad.NumElements() != w.NumElements() {
			return fmt.Errorf("ops: %s gradient shape %v does not match variable %v", r.Algo, grad.Shape(), w.Shape())
		}
	} else if !r.HasSparse() {
		return fmt.Errorf("ops: %s has no sparse form", r.Algo)
	}
	if dt == tensor.Float32 {
		return apply(newCoeffs[float32](r, step), rowFor[float32](r.Algo), w, slots, indices, grad)
	}
	return apply(newCoeffs[float64](r, step), rowFor[float64](r.Algo), w, slots, indices, grad)
}

type float interface{ float32 | float64 }

// coeffs are a rule's hyperparameters, rounded to the variable's dtype once
// per update.
type coeffs[T float] struct {
	lr, decay, oneMinus, decay2, oneMinus2, eps T
	corr1, corr2                                T // Adam: 1 − β1^t, 1 − β2^t
}

func newCoeffs[T float](r UpdateRule, step int64) *coeffs[T] {
	c := &coeffs[T]{
		lr: T(r.LearningRate), decay: T(r.Decay), oneMinus: T(1 - r.Decay),
		decay2: T(r.Decay2), oneMinus2: T(1 - r.Decay2), eps: T(r.Epsilon),
	}
	if ruleDefs[r.Algo].step {
		c.corr1 = T(1 - T(math.Pow(float64(c.decay), float64(step))))
		c.corr2 = T(1 - T(math.Pow(float64(c.decay2), float64(step))))
	}
	return c
}

func sqrt[T float](x T) T { return T(math.Sqrt(float64(x))) }

// rowFn updates one row w of a variable, and the same row of each slot,
// from the gradient row g. A dense update is one row spanning the variable.
type rowFn[T float] func(c *coeffs[T], w []T, s [][]T, g []T)

func rowFor[T float](algo string) rowFn[T] {
	switch algo {
	case "sgd":
		// w ← w − α·g
		return func(c *coeffs[T], w []T, _ [][]T, g []T) {
			for i, gi := range g {
				w[i] = T(w[i] - T(gi*c.lr))
			}
		}
	case "momentum":
		// v ← μ·v + g;  w ← w − α·v
		return func(c *coeffs[T], w []T, s [][]T, g []T) {
			vel := s[0]
			for i, gi := range g {
				v := T(T(vel[i]*c.decay) + gi)
				vel[i] = v
				w[i] = T(w[i] - T(v*c.lr))
			}
		}
	case "adagrad":
		// a ← a + g²;  w ← w − α·g/√a
		return func(c *coeffs[T], w []T, s [][]T, g []T) {
			acc := s[0]
			for i, gi := range g {
				a := T(acc[i] + T(gi*gi))
				acc[i] = a
				w[i] = T(w[i] - T(T(gi*c.lr)/sqrt(a)))
			}
		}
	case "rmsprop":
		// ms ← ρ·ms + (1−ρ)·g²;  w ← w − α·g/√(ms+ε)
		return func(c *coeffs[T], w []T, s [][]T, g []T) {
			ms := s[0]
			for i, gi := range g {
				m := T(T(ms[i]*c.decay) + T(T(gi*gi)*c.oneMinus))
				ms[i] = m
				w[i] = T(w[i] - T(T(gi*c.lr)/sqrt(T(m+c.eps))))
			}
		}
	case "adadelta":
		// a ← ρ·a + (1−ρ)·g²;  u ← √(x+ε)·g/√(a+ε);
		// x ← ρ·x + (1−ρ)·u²;  w ← w − α·u
		return func(c *coeffs[T], w []T, s [][]T, g []T) {
			accG, accX := s[0], s[1]
			for i, gi := range g {
				a := T(T(accG[i]*c.decay) + T(T(gi*gi)*c.oneMinus))
				accG[i] = a
				u := T(T(sqrt(T(accX[i]+c.eps))*gi) / sqrt(T(a+c.eps)))
				accX[i] = T(T(accX[i]*c.decay) + T(T(u*u)*c.oneMinus))
				w[i] = T(w[i] - T(u*c.lr))
			}
		}
	case "adam":
		// m ← β1·m + (1−β1)·g;  v ← β2·v + (1−β2)·g²;
		// w ← w − α·(m/(1−β1^t)) / (√(v/(1−β2^t)) + ε)
		return func(c *coeffs[T], w []T, s [][]T, g []T) {
			m, v := s[0], s[1]
			for i, gi := range g {
				mi := T(T(m[i]*c.decay) + T(gi*c.oneMinus))
				vi := T(T(v[i]*c.decay2) + T(T(gi*gi)*c.oneMinus2))
				m[i], v[i] = mi, vi
				mHat, vHat := T(mi/c.corr1), T(vi/c.corr2)
				w[i] = T(w[i] - T(T(mHat*c.lr)/T(sqrt(vHat)+c.eps)))
			}
		}
	}
	panic("ops: no row routine for update rule " + algo)
}

// data returns a float tensor's backing slice.
func data[T float](t *tensor.Tensor) []T {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return any(t.Float32s()).([]T)
	}
	return any(t.Float64s()).([]T)
}

func apply[T float](c *coeffs[T], row rowFn[T], w *tensor.Tensor, slots []*tensor.Tensor, indices, grad *tensor.Tensor) error {
	wv, g := data[T](w), data[T](grad)
	sv := make([][]T, len(slots))
	for i, s := range slots {
		sv[i] = data[T](s)
	}
	if indices == nil {
		row(c, wv, sv, g)
		return nil
	}
	if w.Rank() < 1 {
		return fmt.Errorf("ops: sparse update of a scalar variable")
	}
	rows := w.Shape()[0]
	width := w.NumElements() / max(rows, 1)
	n := indices.NumElements()
	if len(g) != n*width {
		return fmt.Errorf("ops: sparse gradient shape %v does not match %d indices x row %d", grad.Shape(), n, width)
	}
	// Sum duplicate indices first, so a row gathered twice in one step is
	// updated once by its total gradient, as a dense gradient would be.
	pos := make(map[int]int, n)
	var uniq []int
	var sums []T
	for i := 0; i < n; i++ {
		idx := indices.IntAt(i)
		if idx < 0 || idx >= rows {
			return fmt.Errorf("ops: sparse update index %d out of range [0,%d)", idx, rows)
		}
		gi := g[i*width : (i+1)*width]
		k, seen := pos[idx]
		if !seen {
			pos[idx] = len(uniq)
			uniq = append(uniq, idx)
			sums = append(sums, gi...)
			continue
		}
		sum := sums[k*width : (k+1)*width]
		for j := range sum {
			sum[j] = T(sum[j] + gi[j])
		}
	}
	rs := make([][]T, len(sv))
	for k, idx := range uniq {
		lo, hi := idx*width, (idx+1)*width
		for i, s := range sv {
			rs[i] = s[lo:hi]
		}
		row(c, wv[lo:hi], rs, sums[k*width:(k+1)*width])
	}
	return nil
}

// registerTrainingOps registers Apply<Rule> for every rule and
// SparseApply<Rule> for the rules with a sparse form. Inputs: the variable's
// reference, one reference per slot, [indices,] the gradient, and for Adam
// the update count. The output forwards the variable's reference, like the
// scatter ops.
func registerTrainingOps() {
	for algo, def := range ruleDefs {
		registerTrainingOp(algo, def, false)
		if def.sparse {
			registerTrainingOp(algo, def, true)
		}
	}
}

func registerTrainingOp(algo string, def ruleDef, sparse bool) {
	refs := 1 + len(def.slots)
	gradIn := refs
	if sparse {
		gradIn++
	}
	arity := gradIn + 1
	if def.step {
		arity++
	}
	opType := UpdateRule{Algo: algo}.OpType(sparse)
	graph.RegisterOp(&graph.OpDef{
		Type: opType, MinInputs: arity, MaxInputs: arity, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			for i := 0; i < refs; i++ {
				if !in[i].IsRef || in[i].DType != in[0].DType {
					return nil, fmt.Errorf("%s input %d must be a %v variable reference", opType, i, in[0].DType)
				}
			}
			if sparse && !in[refs].DType.IsInteger() {
				return nil, fmt.Errorf("%s indices must be integer", opType)
			}
			if in[gradIn].DType != in[0].DType {
				return nil, fmt.Errorf("%s gradient dtype %v does not match variable %v", opType, in[gradIn].DType, in[0].DType)
			}
			return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone(), IsRef: true}}, nil
		},
	})
	RegisterKernel(opType, "CPU", func(ctx *OpContext) error {
		r := UpdateRule{
			Algo:         algo,
			LearningRate: ctx.Node.AttrFloat("learning_rate", 0),
			Decay:        ctx.Node.AttrFloat("decay", 0),
			Decay2:       ctx.Node.AttrFloat("decay2", 0),
			Epsilon:      ctx.Node.AttrFloat("epsilon", 0),
		}
		vars := make([]*Variable, refs)
		for i := range vars {
			v, err := ctx.InputVar(i)
			if err != nil {
				return err
			}
			vars[i] = v
		}
		var indices *tensor.Tensor
		if sparse {
			var err error
			if indices, err = ctx.Input(refs); err != nil {
				return err
			}
		}
		grad, err := ctx.Input(gradIn)
		if err != nil {
			return err
		}
		var step int64
		if def.step {
			t, err := ctx.Input(gradIn + 1)
			if err != nil {
				return err
			}
			step = int64(t.FloatAt(0))
		}
		if err := r.Apply(step, vars[0], vars[1:], indices, grad); err != nil {
			return fmt.Errorf("%s: %w", opType, err)
		}
		ctx.Outputs[0] = ctx.Inputs[0]
		return nil
	})
}
