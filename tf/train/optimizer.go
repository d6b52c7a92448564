// Package train implements the training utilities of the paper as
// user-level graph code: optimization algorithms built from Variables and
// training ops (§4.1) — the exact capability that required C++
// parameter-server changes in DistBelief — plus checkpointing (§4.3),
// input-pipeline coordination, and the synchronous replication schemes with
// backup workers of §4.4.
package train

import (
	"fmt"

	"repro/internal/ops"
	"repro/tf"
)

// Optimizer computes parameter updates from gradients. Every implementation
// is pure graph construction: Minimize appends update operations and returns
// the op to run each training step.
type Optimizer interface {
	// Minimize differentiates loss w.r.t. the variables and applies the
	// update rule, returning the grouped training op.
	Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error)
	// ApplyGradients applies the update rule to precomputed gradients
	// (used by data-parallel replication, which aggregates gradients
	// before applying them, §4.4).
	ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error)
}

// UpdateRuler is implemented by optimizers whose update rule is one of the
// built-in training kernels, so it can be serialized and shipped to a
// parameter-server shard: the optimizer splits into a worker-side gradient
// computation and a shard-side apply that runs the same kernel next to the
// variables (the parameter-server design of the preliminary whitepaper;
// §4.4 moves the sync barrier to the shard with it). Every built-in
// optimizer implements it, and synchronous replicated training requires it.
type UpdateRuler interface {
	// UpdateRule returns the optimizer's serializable rule, defaults
	// applied.
	UpdateRule() ops.UpdateRule
}

// minimize is the shared Minimize-via-ApplyGradients implementation.
func minimize(o Optimizer, g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	xs := make([]tf.Output, len(vars))
	for i, v := range vars {
		xs[i] = v.Value()
	}
	grads, err := g.Gradients([]tf.Output{loss}, xs)
	if err != nil {
		return nil, err
	}
	return o.ApplyGradients(g, grads, vars)
}

// applyRule emits one training op per variable: SparseApply<Rule> on an
// (indices, values) gradient when the rule has a sparse form, touching only
// the gathered rows (§4.2), and Apply<Rule> on the dense (or densified)
// gradient otherwise. The rule's slot variables are created next to each
// variable.
func applyRule(g *tf.Graph, rule ops.UpdateRule, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}
	var step tf.Output
	if rule.Algo == "adam" {
		// Shared timestep driving the bias correction: the AssignAdd
		// forwards the incremented value, so the first run applies t = 1.
		t := g.NewVariableFromTensor("train/adam_t", scalarOf(tf.Float32, 0))
		step = t.AssignAdd(g.Const(float32(1))).Output(0)
	}
	var updates []*tf.Operation
	for i, grad := range grads {
		v := vars[i]
		if grad.IsZero() {
			continue
		}
		// Inputs: the reference edges of v and its slots, then the
		// gradient (and Adam's step).
		ins := []tf.Output{v.Ref()}
		for _, name := range rule.Slots() {
			ins = append(ins, slotVar(g, v, name, rule.SlotFill()).Ref())
		}
		sparse := grad.Sparse != nil && rule.HasSparse()
		if sparse {
			ins = append(ins, grad.Sparse.Indices, grad.Sparse.Values)
		} else {
			dense, err := g.DensifyGradient(grad)
			if err != nil {
				return nil, err
			}
			ins = append(ins, dense)
		}
		if step.Valid() {
			ins = append(ins, step)
		}
		// The reference edges place the op with v; the caller's device
		// scope is cleared so it cannot conflict.
		op := g.WithDevice("").BuildOp(rule.OpType(sparse), "", rule.Attrs(), ins...)
		updates = append(updates, op)
	}
	op := g.Group("train/"+rule.Algo, updates...)
	return op, g.Err()
}

// slotVar creates an accumulator variable shadowing v (e.g. the Momentum
// "velocity"), initialized to a constant fill. The paper uses exactly this
// pattern to show optimizers need no privileged runtime support (§4.1).
// The slot is colocated with v, so in a parameter-server placement the
// optimizer state lives on the same task as the parameters it adapts
// (§3.3, §4.1). The colocation must win over any ambient device scope the
// caller's view carries, so the scope is cleared before the hint is
// attached.
func slotVar(g *tf.Graph, v *tf.Variable, slot string, fill float64) *tf.Variable {
	gc := g.WithDevice("").ColocateWith(v.Ref().Op())
	init := gc.Const(mustFill(v.DType(), v.Shape(), fill))
	return gc.NewVariable(v.Name()+"/"+slot, init)
}

func mustFill(dt tf.DType, shape tf.Shape, fill float64) *tf.Tensor {
	t := tf.NewTensor(dt, shape)
	if fill != 0 {
		for i := 0; i < t.NumElements(); i++ {
			t.SetFloat(i, fill)
		}
	}
	return t
}

func scalarOf(dt tf.DType, v float64) *tf.Tensor {
	t := tf.NewTensor(dt, tf.Shape{})
	t.SetFloat(0, v)
	return t
}

// GradientDescent is plain SGD: W ← W − α·∂L/∂W, expressible as a single
// specialized write (§4.1). Sparse gradients update only the gathered rows
// (§4.2).
type GradientDescent struct {
	LearningRate float64
}

// UpdateRule implements UpdateRuler.
func (o *GradientDescent) UpdateRule() ops.UpdateRule {
	return ops.UpdateRule{Algo: "sgd", LearningRate: o.LearningRate}
}

// Minimize implements Optimizer.
func (o *GradientDescent) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *GradientDescent) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Momentum implements the momentum method (§4.1's motivating example of an
// optimizer that a plain parameter server cannot express as one write):
//
//	vel ← μ·vel + ∂L/∂W;  W ← W − α·vel
//
// Sparse gradients decay and update only the gathered velocity rows; the
// other rows keep their parameters and slot state.
type Momentum struct {
	LearningRate float64
	Decay        float64 // μ, typically 0.9
}

// UpdateRule implements UpdateRuler.
func (o *Momentum) UpdateRule() ops.UpdateRule {
	return ops.UpdateRule{Algo: "momentum", LearningRate: o.LearningRate, Decay: o.Decay}
}

// Minimize implements Optimizer.
func (o *Momentum) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Momentum) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adagrad adapts per-parameter learning rates by accumulated squared
// gradients. Sparse gradients update only the touched accumulator rows.
type Adagrad struct {
	LearningRate float64
	InitialAccum float64 // typically 0.1 (the default)
}

// UpdateRule implements UpdateRuler.
func (o *Adagrad) UpdateRule() ops.UpdateRule {
	accInit := o.InitialAccum
	if accInit <= 0 {
		accInit = 0.1
	}
	return ops.UpdateRule{Algo: "adagrad", LearningRate: o.LearningRate, InitialAccum: accInit}
}

// Minimize implements Optimizer.
func (o *Adagrad) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adagrad) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// RMSProp keeps an exponentially decayed mean of squared gradients.
type RMSProp struct {
	LearningRate float64
	Decay        float64 // typically 0.9
	Epsilon      float64 // typically 1e-8 (the default)
}

// UpdateRule implements UpdateRuler.
func (o *RMSProp) UpdateRule() ops.UpdateRule {
	eps := o.Epsilon
	if eps <= 0 {
		eps = 1e-8
	}
	return ops.UpdateRule{Algo: "rmsprop", LearningRate: o.LearningRate, Decay: o.Decay, Epsilon: eps}
}

// Minimize implements Optimizer.
func (o *RMSProp) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *RMSProp) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adadelta is RMSProp with a second accumulator of squared updates,
// removing the global learning rate's units.
type Adadelta struct {
	LearningRate float64 // typically 1.0 (the default)
	Rho          float64 // typically 0.95
	Epsilon      float64 // typically 1e-6 (the default)
}

// UpdateRule implements UpdateRuler.
func (o *Adadelta) UpdateRule() ops.UpdateRule {
	lr, eps := o.LearningRate, o.Epsilon
	if lr == 0 {
		lr = 1
	}
	if eps <= 0 {
		eps = 1e-6
	}
	return ops.UpdateRule{Algo: "adadelta", LearningRate: lr, Decay: o.Rho, Epsilon: eps}
}

// Minimize implements Optimizer.
func (o *Adadelta) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adadelta) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adam combines first- and second-moment estimates with bias correction.
// The graph counts updates in the variable "train/adam_t"; a PS shard uses
// the round number instead (round k applies t = k+1).
type Adam struct {
	LearningRate float64 // typically 1e-3
	Beta1        float64 // typically 0.9 (the default)
	Beta2        float64 // typically 0.999 (the default)
	Epsilon      float64 // typically 1e-8 (the default)
}

// UpdateRule implements UpdateRuler.
func (o *Adam) UpdateRule() ops.UpdateRule {
	beta1, beta2, eps := o.Beta1, o.Beta2, o.Epsilon
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	if eps <= 0 {
		eps = 1e-8
	}
	return ops.UpdateRule{Algo: "adam", LearningRate: o.LearningRate, Decay: beta1, Decay2: beta2, Epsilon: eps}
}

// Minimize implements Optimizer.
func (o *Adam) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adam) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// ClipByGlobalNorm rescales dense gradients so their joint L2 norm is at
// most clip — the gradient-clipping refinement users layered on the
// differentiation library (§4.1).
func ClipByGlobalNorm(g *tf.Graph, grads []tf.Gradient, clip float64) ([]tf.Gradient, error) {
	var sq []tf.Output
	for _, grad := range grads {
		if grad.IsZero() {
			continue
		}
		d, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		sq = append(sq, g.Sum(g.Square(d), nil, false))
	}
	if len(sq) == 0 {
		return grads, nil
	}
	norm := g.Sqrt(g.AddN(sq...))
	clipC := g.Const(scalarOf(norm.DType(), clip))
	scale := g.Div(clipC, g.Maximum(norm, clipC))
	out := make([]tf.Gradient, len(grads))
	for i, grad := range grads {
		if grad.IsZero() {
			out[i] = grad
			continue
		}
		d, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		out[i] = tf.Gradient{Dense: g.Mul(d, scale)}
	}
	return out, g.Err()
}
