package gbdt

// node is one tree node. Leaves have Feature == -1.
type node struct {
	Feature     int32   // split feature, -1 for leaf
	Threshold   float64 // go left iff value <= Threshold (non-missing)
	MissingLeft bool    // learned default direction for NaN values
	Left, Right int32   // child indices
	Value       float64 // leaf value (already shrunk by learning rate)
}

// Tree is a single regression tree over raw feature values.
type Tree struct {
	Nodes []node
}

// numLeaves counts leaf nodes.
func (t *Tree) numLeaves() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Feature < 0 {
			n++
		}
	}
	return n
}

// visitSplits calls fn for every internal node's split feature.
func (t *Tree) visitSplits(fn func(feature int)) {
	for i := range t.Nodes {
		if t.Nodes[i].Feature >= 0 {
			fn(int(t.Nodes[i].Feature))
		}
	}
}
