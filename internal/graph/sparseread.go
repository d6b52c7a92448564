package graph

// Sparse reads (§4.2, Figure 3): the Gather that reads an embedding runs on
// the task that owns the variable, so only the selected rows cross the
// network. The construction layer emits Gather(Read(v), ids), and Read
// clones the whole buffer; SparseReads rewrites each such Gather onto
// Gather(v, ids). The Gather kernel reads a reference in place under the
// variable's read lock, and the placer's reference-edge rule puts the new
// node on the variable's device, so the full-table copy and its transfer
// disappear (per-step Prune drops the Read once nothing else consumes it).
//
// The new Gather carries no device constraint of its own: the variable
// decides where it runs. A Gather is left alone when
//
//   - its Read has control inputs (the snapshot is ordered after them);
//   - it has explicit colocation hints;
//   - it lives in a control-flow frame (frame state stays 1:1 with its
//     loop, as in nonOptimizable);
//   - an op writing the variable could run between the snapshot and the
//     live read: a writer its indices or control inputs depend on, or a
//     writer the Read precedes but the Gather does not.
//
// Like the other passes, SparseReads never removes nodes. Gradients built
// after it ran still reach v's Read: autodiff credits a Gather on v's
// reference to it. A step that feeds the Read's output does not reach a
// moved Gather, as a fed endpoint that FoldConstants replaced does not
// reach its consumers.

// SparseReads rewrites every eligible Gather(Read(v), ids) onto
// Gather(v, ids) and returns the number of rewrites and the endpoint
// replacement map.
func SparseReads(g *Graph) (int, map[Endpoint]Endpoint, error) {
	replaced := make(map[Endpoint]Endpoint)
	moved := 0
	for _, gather := range g.Nodes() {
		if gather.op != "Gather" || NodeFrame(gather) != "" || len(gather.Colocation()) > 0 {
			continue
		}
		read := gather.inputs[0].Node
		if read.op != "Read" || len(read.control) > 0 {
			continue
		}
		ref := read.inputs[0]
		if ref.Node.op != "Variable" || snapshotMatters(g, ref.Node, read, gather) {
			continue
		}
		at, err := g.AddNode("Gather", []Endpoint{ref, gather.inputs[1]}, NodeArgs{
			Name: gather.name + "/at_variable", Control: gather.control,
		})
		if err != nil {
			return moved, replaced, err
		}
		g.rewriteInputs(gather.Out(0), at.Out(0))
		replaced[gather.Out(0)] = at.Out(0)
		g.rewriteControl(gather, at)
		moved++
	}
	return moved, replaced, nil
}

// snapshotMatters reports whether some op writing v could run after read
// took its snapshot but before gather reads the live buffer.
func snapshotMatters(g *Graph, v, read, gather *Node) bool {
	// Every op reached from v through reference edges may write it, apart
	// from the reads themselves.
	refs := map[*Node]bool{v: true}
	var writers []*Node
	for _, n := range g.Nodes() {
		for _, in := range n.inputs {
			if !in.Spec().IsRef || !refs[in.Node] || refs[n] {
				continue
			}
			refs[n] = true
			if n.op != "Read" && n.op != "Gather" {
				writers = append(writers, n)
			}
		}
	}
	if len(writers) == 0 {
		return false
	}
	gatherDeps := ancestors(append([]*Node{gather.inputs[1].Node}, gather.control...))
	for _, w := range writers {
		if gatherDeps[w] {
			return true
		}
		if wDeps := ancestors([]*Node{w}); wDeps[read] && !wDeps[gather] {
			return true
		}
	}
	return false
}

// ancestors returns the roots and every node they reach backwards through
// data and control inputs.
func ancestors(roots []*Node) map[*Node]bool {
	seen := make(map[*Node]bool)
	stack := append([]*Node(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, in := range n.inputs {
			stack = append(stack, in.Node)
		}
		stack = append(stack, n.control...)
	}
	return seen
}
