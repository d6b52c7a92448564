package autodiff

import (
	"fmt"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerStandardGradients()
}

// zeroGrads returns n zero gradients.
func zeroGrads(n int) []Grad { return make([]Grad, n) }

// sumToLike reduces a broadcast gradient back to the shape of the operand
// that produced it. When the static shapes already agree this is the
// identity; otherwise SumToShape performs the runtime reduction.
func sumToLike(b *build.B, g, operand graph.Endpoint) Grad {
	if g.Node == nil || operand.Node == nil {
		// An upstream builder call already failed (the error is sticky on
		// b); stay inert instead of dereferencing the zero endpoint.
		return Grad{}
	}
	gs, os := g.Shape(), operand.Shape()
	if gs.IsFullyDefined() && os.IsFullyDefined() && gs.Equal(os) {
		return DenseGrad(g)
	}
	return DenseGrad(b.Op("SumToShape", []graph.Endpoint{g, b.Shape(operand)}, nil))
}

// dense extracts (densifying if needed) the dense endpoint of an out-grad.
func dense(b *build.B, g Grad) (graph.Endpoint, error) {
	return Densify(b, g)
}

func registerStandardGradients() {
	passthrough := func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		return []Grad{out[0]}, nil
	}
	RegisterGradient("Identity", passthrough)
	// LoopCond carries a boolean: nothing differentiable flows through it.
	RegisterGradient("LoopCond", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		return zeroGrads(1), nil
	})

	// Read's input is a variable reference; the gradient stops there —
	// optimizers consume the gradient w.r.t. the Read output.
	RegisterGradient("Read", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		return zeroGrads(1), nil
	})

	// Non-differentiable producers.
	for _, op := range []string{
		"Shape", "Size", "Rank", "ArgMax", "OneHot", "Equal", "NotEqual",
		"Less", "LessEqual", "Greater", "GreaterEqual", "LogicalAnd",
		"LogicalOr", "LogicalNot", "Floor", "Ceil", "Sign", "InTopK",
		"ZerosLike", "OnesLike",
	} {
		nInputs := 1
		switch op {
		case "Equal", "NotEqual", "Less", "LessEqual", "Greater",
			"GreaterEqual", "LogicalAnd", "LogicalOr", "InTopK":
			nInputs = 2
		}
		nIn := nInputs
		RegisterGradient(op, func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
			return zeroGrads(nIn), nil
		})
	}

	RegisterGradient("Add", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{sumToLike(b, g, n.Input(0)), sumToLike(b, g, n.Input(1))}, nil
	})
	RegisterGradient("Sub", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{sumToLike(b, g, n.Input(0)), sumToLike(b, b.Neg(g), n.Input(1))}, nil
	})
	RegisterGradient("Mul", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		x, y := n.Input(0), n.Input(1)
		return []Grad{sumToLike(b, b.Mul(g, y), x), sumToLike(b, b.Mul(g, x), y)}, nil
	})
	RegisterGradient("Div", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		x, y := n.Input(0), n.Input(1)
		gx := b.Div(g, y)
		gy := b.Neg(b.Div(b.Mul(g, x), b.Mul(y, y)))
		return []Grad{sumToLike(b, gx, x), sumToLike(b, gy, y)}, nil
	})
	RegisterGradient("Pow", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		x, y := n.Input(0), n.Input(1)
		one := b.Scalar(x.DType(), 1)
		gx := b.Mul(g, b.Mul(y, b.Op2("Pow", x, b.Sub(y, one))))
		// d/dy x^y = x^y * ln x, guarded for x <= 0.
		logX := b.Op1("Log", b.Op2("Maximum", x, b.Scalar(x.DType(), 1e-30)))
		gy := b.Mul(g, b.Mul(n.Out(0), logX))
		return []Grad{sumToLike(b, gx, x), sumToLike(b, gy, y)}, nil
	})
	RegisterGradient("Maximum", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		return minMaxGrad(b, n, out, "GreaterEqual")
	})
	RegisterGradient("Minimum", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		return minMaxGrad(b, n, out, "LessEqual")
	})
	RegisterGradient("SquaredDifference", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		x, y := n.Input(0), n.Input(1)
		two := b.Scalar(x.DType(), 2)
		d := b.Mul(two, b.Mul(g, b.Sub(x, y)))
		return []Grad{sumToLike(b, d, x), sumToLike(b, b.Neg(d), y)}, nil
	})

	RegisterGradient("Neg", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Neg(g))}, nil
	})
	RegisterGradient("Abs", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Mul(g, b.Op1("Sign", n.Input(0))))}, nil
	})
	RegisterGradient("Exp", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Mul(g, n.Out(0)))}, nil
	})
	RegisterGradient("Log", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Div(g, n.Input(0)))}, nil
	})
	RegisterGradient("Sqrt", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		half := b.Scalar(n.Input(0).DType(), 0.5)
		return []Grad{DenseGrad(b.Div(b.Mul(g, half), n.Out(0)))}, nil
	})
	RegisterGradient("Rsqrt", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		// d/dx x^(-1/2) = -1/2 x^(-3/2) = -y³/2.
		y := n.Out(0)
		coeff := b.Scalar(n.Input(0).DType(), -0.5)
		return []Grad{DenseGrad(b.Mul(g, b.Mul(coeff, b.Mul(y, b.Mul(y, y)))))}, nil
	})
	RegisterGradient("Square", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		two := b.Scalar(n.Input(0).DType(), 2)
		return []Grad{DenseGrad(b.Mul(g, b.Mul(two, n.Input(0))))}, nil
	})
	RegisterGradient("Reciprocal", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		y := n.Out(0)
		return []Grad{DenseGrad(b.Neg(b.Mul(g, b.Mul(y, y))))}, nil
	})
	RegisterGradient("Tanh", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Op2("TanhGrad", n.Out(0), g))}, nil
	})
	RegisterGradient("Sigmoid", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Op2("SigmoidGrad", n.Out(0), g))}, nil
	})
	RegisterGradient("Relu", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Op2("ReluGrad", g, n.Input(0)))}, nil
	})

	RegisterGradient("MatMul", matMulGrad)
	RegisterGradient("FusedMatMul", matMulGrad)

	RegisterGradient("AddN", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		grads := make([]Grad, n.NumInputs())
		for i := range grads {
			grads[i] = out[0]
		}
		return grads, nil
	})

	RegisterGradient("BiasAdd", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(g), DenseGrad(b.Op1("BiasAddGrad", g))}, nil
	})

	for _, spec := range []struct{ op, grad string }{{"Sum", "SumGrad"}, {"Mean", "MeanGrad"}} {
		gradOp := spec.grad
		RegisterGradient(spec.op, func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
			g, err := dense(b, out[0])
			if err != nil {
				return nil, err
			}
			attrs := map[string]any{"keep_dims": n.AttrBool("keep_dims", false)}
			if axes, ok := n.AttrInts("reduction_indices"); ok {
				attrs["reduction_indices"] = axes
			}
			return []Grad{DenseGrad(b.Op(gradOp, []graph.Endpoint{n.Input(0), g}, attrs))}, nil
		})
	}

	reshapeGrad := func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		grads := zeroGrads(n.NumInputs())
		grads[0] = DenseGrad(b.ReshapeLike(g, n.Input(0)))
		return grads, nil
	}
	RegisterGradient("Reshape", reshapeGrad)
	RegisterGradient("ExpandDims", reshapeGrad)
	RegisterGradient("Squeeze", reshapeGrad)

	RegisterGradient("Transpose", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		perm, ok := n.AttrInts("perm")
		if !ok {
			return []Grad{DenseGrad(b.Transpose(g, nil))}, nil
		}
		inv := make([]int, len(perm))
		for i, p := range perm {
			inv[p] = i
		}
		return []Grad{DenseGrad(b.Transpose(g, inv))}, nil
	})

	RegisterGradient("Concat", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		axis := n.AttrInt("axis", 0)
		sizes := make([]int, n.NumInputs())
		for i := 0; i < n.NumInputs(); i++ {
			s := n.Input(i).Shape()
			a := axis
			if a < 0 {
				a += s.Rank()
			}
			if a < 0 || a >= s.Rank() || s[a] < 0 {
				return nil, fmt.Errorf("Concat gradient needs static sizes along axis %d", axis)
			}
			sizes[i] = s[a]
		}
		split := b.Node("Split", []graph.Endpoint{g}, "", map[string]any{"axis": axis, "sizes": sizes})
		if split == nil {
			return nil, b.Err()
		}
		grads := make([]Grad, n.NumInputs())
		for i := range grads {
			grads[i] = DenseGrad(split.Out(i))
		}
		return grads, nil
	})

	RegisterGradient("Split", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		parts := make([]graph.Endpoint, len(out))
		for i, g := range out {
			if g.IsZero() {
				parts[i] = b.ZerosLike(n.Out(i))
				continue
			}
			d, err := dense(b, g)
			if err != nil {
				return nil, err
			}
			parts[i] = d
		}
		return []Grad{DenseGrad(b.Concat(parts, n.AttrInt("axis", 0)))}, nil
	})

	RegisterGradient("Pack", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		un := b.Node("Unpack", []graph.Endpoint{g}, "", nil)
		if un == nil {
			return nil, b.Err()
		}
		grads := make([]Grad, n.NumInputs())
		for i := range grads {
			grads[i] = DenseGrad(un.Out(i))
		}
		return grads, nil
	})

	RegisterGradient("Unpack", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		parts := make([]graph.Endpoint, len(out))
		for i, g := range out {
			if g.IsZero() {
				parts[i] = b.ZerosLike(n.Out(i))
				continue
			}
			d, err := dense(b, g)
			if err != nil {
				return nil, err
			}
			parts[i] = d
		}
		return []Grad{DenseGrad(b.Op("Pack", parts, nil))}, nil
	})

	RegisterGradient("Slice", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		begin, _ := n.AttrInts("begin")
		in := n.Input(0).Shape()
		outShape := n.Out(0).Shape()
		if !in.IsFullyDefined() || !outShape.IsFullyDefined() {
			return nil, fmt.Errorf("Slice gradient needs static shapes")
		}
		pads := make([]int, 2*in.Rank())
		for d := 0; d < in.Rank(); d++ {
			pads[2*d] = begin[d]
			pads[2*d+1] = in[d] - begin[d] - outShape[d]
		}
		return []Grad{DenseGrad(b.Op("Pad", []graph.Endpoint{g}, map[string]any{"paddings": pads}))}, nil
	})

	RegisterGradient("Pad", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		pads, _ := n.AttrInts("paddings")
		in := n.Input(0).Shape()
		if !in.IsFullyDefined() {
			return nil, fmt.Errorf("Pad gradient needs a static input shape")
		}
		begin := make([]int, in.Rank())
		size := make([]int, in.Rank())
		for d := 0; d < in.Rank(); d++ {
			begin[d] = pads[2*d]
			size[d] = in[d]
		}
		return []Grad{DenseGrad(b.Op("Slice", []graph.Endpoint{g}, map[string]any{"begin": begin, "size": size}))}, nil
	})

	RegisterGradient("Cast", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		src := n.Input(0).DType()
		if !src.IsFloat() {
			return zeroGrads(1), nil
		}
		return []Grad{DenseGrad(b.Cast(g, src))}, nil
	})

	// Gather's gradient stays sparse (§4.2): only the gathered rows carry
	// gradient, enabling sparse ScatterAdd updates at the optimizer.
	RegisterGradient("Gather", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		rows := -1
		if ps := n.Input(0).Shape(); ps.Rank() >= 1 {
			rows = ps[0]
		}
		// Flatten index-shaped gradient to [numIndices, rowShape...].
		idx := n.Input(1)
		flatIdx := idx
		if idx.Shape().Rank() != 1 {
			flatIdx = b.ReshapeTo(idx, tensor.Shape{-1})
		}
		rowRank := n.Input(0).Shape().Rank() - 1
		flatShape := make(tensor.Shape, 0, rowRank+1)
		flatShape = append(flatShape, -1)
		flatShape = append(flatShape, n.Input(0).Shape()[1:]...)
		values := b.ReshapeTo(g, flatShape)
		return []Grad{
			{Indices: flatIdx, Values: values, NumRows: rows},
			{},
		}, nil
	})

	RegisterGradient("UnsortedSegmentSum", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Gather(g, n.Input(1))), {}}, nil
	})

	RegisterGradient("DynamicPartition", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		np := n.AttrInt("num_partitions", 1)
		// Reconstruct the routing: partition the original row positions
		// the same way, then stitch the per-shard gradients back.
		shapeVec := b.Shape(n.Input(0))
		rows := b.ReshapeTo(b.Op("Slice", []graph.Endpoint{shapeVec},
			map[string]any{"begin": []int{0}, "size": []int{1}}), tensor.Shape{})
		zero := b.Const(tensor.ScalarInt(0))
		one := b.Const(tensor.ScalarInt(1))
		rangeVec := b.Op("Range", []graph.Endpoint{zero, rows, one}, nil)
		partsNode := b.Node("DynamicPartition", []graph.Endpoint{rangeVec, n.Input(1)}, "",
			map[string]any{"num_partitions": np})
		if partsNode == nil {
			return nil, b.Err()
		}
		stitchIn := make([]graph.Endpoint, 0, 2*np)
		for i := 0; i < np; i++ {
			stitchIn = append(stitchIn, partsNode.Out(i))
		}
		for i := 0; i < np; i++ {
			if out[i].IsZero() {
				stitchIn = append(stitchIn, b.ZerosLike(n.Out(i)))
				continue
			}
			d, err := dense(b, out[i])
			if err != nil {
				return nil, err
			}
			stitchIn = append(stitchIn, d)
		}
		return []Grad{DenseGrad(b.Op("DynamicStitch", stitchIn, nil)), {}}, nil
	})

	RegisterGradient("DynamicStitch", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		half := n.NumInputs() / 2
		grads := zeroGrads(n.NumInputs())
		for i := 0; i < half; i++ {
			grads[half+i] = DenseGrad(b.Gather(g, n.Input(i)))
		}
		return grads, nil
	})

	RegisterGradient("Select", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		zeros := b.ZerosLike(g)
		return []Grad{
			{},
			DenseGrad(b.Op("Select", []graph.Endpoint{n.Input(0), g, zeros}, nil)),
			DenseGrad(b.Op("Select", []graph.Endpoint{n.Input(0), zeros, g}, nil)),
		}, nil
	})

	RegisterGradient("L2Loss", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		return []Grad{DenseGrad(b.Mul(n.Input(0), g))}, nil
	})

	RegisterGradient("Softmax", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		y := n.Out(0)
		dot := b.Sum(b.Mul(g, y), []int{-1}, true)
		return []Grad{DenseGrad(b.Mul(b.Sub(g, dot), y))}, nil
	})

	sceGrad := func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		if out[1].Values.Node != nil || out[1].Dense.Node != nil {
			return nil, fmt.Errorf("differentiating through the backprop output is not supported")
		}
		g, err := dense(b, out[0]) // [batch]
		if err != nil {
			return nil, err
		}
		// Expand loss gradient to [batch, 1] and scale the fused
		// backprop output (softmax - labels).
		col := b.ReshapeTo(g, tensor.Shape{-1, 1})
		grads := zeroGrads(2)
		grads[0] = DenseGrad(b.Mul(n.Out(1), col))
		return grads, nil
	}
	RegisterGradient("SoftmaxCrossEntropyWithLogits", sceGrad)
	RegisterGradient("SparseSoftmaxCrossEntropyWithLogits", sceGrad)

	RegisterGradient("Conv2D", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		attrs := map[string]any{}
		if strides, ok := n.AttrInts("strides"); ok {
			attrs["strides"] = strides
		}
		attrs["padding"] = n.AttrString("padding", "VALID")
		gi := b.Op("Conv2DBackpropInput",
			[]graph.Endpoint{b.Shape(n.Input(0)), n.Input(1), g}, attrs)
		gf := b.Op("Conv2DBackpropFilter",
			[]graph.Endpoint{n.Input(0), b.Shape(n.Input(1)), g}, attrs)
		return []Grad{DenseGrad(gi), DenseGrad(gf)}, nil
	})

	RegisterGradient("MaxPool", func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
		g, err := dense(b, out[0])
		if err != nil {
			return nil, err
		}
		attrs := map[string]any{"padding": n.AttrString("padding", "VALID")}
		if ksize, ok := n.AttrInts("ksize"); ok {
			attrs["ksize"] = ksize
		}
		if strides, ok := n.AttrInts("strides"); ok {
			attrs["strides"] = strides
		}
		return []Grad{DenseGrad(b.Op("MaxPoolGrad", []graph.Endpoint{n.Input(0), g}, attrs))}, nil
	})

	// Conditional gradients (§4.1, §3.4): the backward of a conditional is
	// its dual on the same predicate — the gradient of a Merge is a Switch
	// and the gradient of a Switch is a Merge, with zeros injected for the
	// branch that contributed nothing. Deadness does the pruning at run
	// time: the untaken branch's gradient arrives dead and the backward
	// Merge forwards the live one.
	RegisterGradient("Switch", switchGrad)
	RegisterGradient("Merge", mergeGrad)

	// While-loop primitives are differentiated as whole frames by the
	// loop-gradient builder (loopgrad.go); gradient reaching one of these
	// directly means the loop lacks the tf.While metadata, and a wrong
	// answer would be silent — so fail naming the node.
	for _, op := range []string{"Enter", "Exit", "NextIteration"} {
		opName := op
		RegisterGradient(op, func(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
			return nil, fmt.Errorf("%s node %s carries no loop metadata (hand-built loop?); "+
				"only loops built by tf.While are differentiable", opName, n.Name())
		})
	}
}

// switchGrad: dL/d(data) = Merge(grad_false, grad_true) on the same
// predicate. A branch without a contribution gets a predicate-gated zero so
// exactly one Merge input is live whichever way the forward step branched.
func switchGrad(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
	if n.Input(1).Node.Op() == "LoopCond" {
		return nil, fmt.Errorf("while-loop Switch %s cannot be differentiated directly; "+
			"gradients flow through the loop's Exit values", n.Name())
	}
	pred := n.Input(1)
	var fEp, tEp graph.Endpoint
	var err error
	if !out[0].IsZero() {
		if fEp, err = Densify(b, out[0]); err != nil {
			return nil, err
		}
	}
	if !out[1].IsZero() {
		if tEp, err = Densify(b, out[1]); err != nil {
			return nil, err
		}
	}
	if fEp.Node == nil || tEp.Node == nil {
		z := b.Node("Switch", []graph.Endpoint{b.ZerosLike(n.Input(0)), pred}, "cond_grad/zeros", nil)
		if z == nil {
			return nil, b.Err()
		}
		if fEp.Node == nil {
			fEp = z.Out(0)
		}
		if tEp.Node == nil {
			tEp = z.Out(1)
		}
	}
	// Record the predicate like tf.Cond does, so the backward conditional
	// is itself differentiable (second-order gradients).
	m := b.Node("Merge", []graph.Endpoint{fEp, tEp}, "cond_grad/merge", map[string]any{
		graph.CondPredAttr:      pred.Node.Name(),
		graph.CondPredIndexAttr: pred.Index,
	})
	if m == nil {
		return nil, b.Err()
	}
	return []Grad{DenseGrad(m.Out(0)), {}}, nil
}

// mergeGrad: dL/d(input i) = Switch(grad, pred) output i — the gradient
// flows only into the branch that actually produced the merged value.
func mergeGrad(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
	if f := graph.NodeFrame(n); f != "" {
		return nil, fmt.Errorf("while-loop Merge %s (frame %s) cannot be differentiated directly; "+
			"gradients flow through the loop's Exit values", n.Name(), f)
	}
	for _, in := range n.Inputs() {
		if in.Node.Op() == "NextIteration" {
			return nil, fmt.Errorf("Merge %s closes a loop back edge and cannot be differentiated directly", n.Name())
		}
	}
	if out[0].IsZero() {
		// Only the value_index output (non-differentiable) carried grad.
		return zeroGrads(n.NumInputs()), nil
	}
	if n.NumInputs() != 2 {
		return nil, fmt.Errorf("Merge %s has %d inputs; only two-way conditionals are differentiable", n.Name(), n.NumInputs())
	}
	g, err := Densify(b, out[0])
	if err != nil {
		return nil, err
	}
	pred, err := mergePred(b, n)
	if err != nil {
		return nil, err
	}
	sw := b.Node("Switch", []graph.Endpoint{g, pred}, "cond_grad/switch", nil)
	if sw == nil {
		return nil, b.Err()
	}
	// Input order follows the Cond convention: input 0 is the false-branch
	// value, input 1 the true-branch value.
	return []Grad{DenseGrad(sw.Out(0)), DenseGrad(sw.Out(1))}, nil
}

// mergePred recovers the predicate that gated a conditional Merge: from the
// metadata tf.Cond records, or structurally when both inputs come straight
// from one Switch.
func mergePred(b *build.B, n *graph.Node) (graph.Endpoint, error) {
	if name := n.AttrString(graph.CondPredAttr, ""); name != "" {
		pn := b.Graph().ByName(name)
		if pn == nil {
			return graph.Endpoint{}, fmt.Errorf("Merge %s records predicate %q which is not in the graph", n.Name(), name)
		}
		return pn.Out(n.AttrInt(graph.CondPredIndexAttr, 0)), nil
	}
	var sw *graph.Node
	for _, in := range n.Inputs() {
		if in.Node.Op() != "Switch" {
			sw = nil
			break
		}
		if sw == nil {
			sw = in.Node
		} else if sw != in.Node {
			sw = nil
			break
		}
	}
	if sw != nil {
		return sw.Input(1), nil
	}
	return graph.Endpoint{}, fmt.Errorf("Merge %s records no predicate (not built by Cond) and its inputs "+
		"do not come from a single Switch; cannot differentiate", n.Name())
}

func minMaxGrad(b *build.B, n *graph.Node, out []Grad, cmpOp string) ([]Grad, error) {
	g, err := dense(b, out[0])
	if err != nil {
		return nil, err
	}
	x, y := n.Input(0), n.Input(1)
	mask := b.Cast(b.Op2(cmpOp, x, y), x.DType())
	gx := b.Mul(g, mask)
	gy := b.Sub(g, gx)
	return []Grad{sumToLike(b, gx, x), sumToLike(b, gy, y)}, nil
}

// matMulGrad differentiates MatMul(a, b) and FusedMatMul(a, b[, bias]) =
// activation(op(a)·op(b) + bias); a MatMul node is the fused form with no
// bias and no activation. The fusion pass normally runs after gradient
// construction, but a fused node can itself be differentiated (e.g. a loss
// built on an already-optimized inference graph). The Relu gate uses the
// fused OUTPUT: relu(x) > 0 iff x > 0, so the post-activation value carries
// the same mask as the unavailable pre-activation sum.
func matMulGrad(b *build.B, n *graph.Node, out []Grad) ([]Grad, error) {
	g, err := dense(b, out[0])
	if err != nil {
		return nil, err
	}
	if n.AttrString("activation", "") == "Relu" {
		g = b.Op2("ReluGrad", g, n.Out(0))
	}
	ta := n.AttrBool("transpose_a", false)
	tb := n.AttrBool("transpose_b", false)
	a, bb := n.Input(0), n.Input(1)
	var ga, gb graph.Endpoint
	switch {
	case !ta && !tb:
		ga = b.MatMul(g, bb, false, true)
		gb = b.MatMul(a, g, true, false)
	case !ta && tb:
		ga = b.MatMul(g, bb, false, false)
		gb = b.MatMul(g, a, true, false)
	case ta && !tb:
		ga = b.MatMul(bb, g, false, true)
		gb = b.MatMul(a, g, false, false)
	default:
		ga = b.MatMul(bb, g, true, true)
		gb = b.MatMul(g, a, true, true)
	}
	grads := []Grad{DenseGrad(ga), DenseGrad(gb)}
	if n.NumInputs() == 3 {
		grads = append(grads, DenseGrad(b.Op1("BiasAddGrad", g)))
	}
	return grads, nil
}
