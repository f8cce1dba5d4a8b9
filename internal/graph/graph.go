// Package graph provides the static computation-graph IR that the
// accelerator simulators compile. Every platform in the paper (§3.1
// "Tensor Sizes") converts models to computation graphs whose tensor
// sizes must be known at compile time; this package enforces exactly
// that: shapes are inferred when a node is added and are immutable
// afterwards, so a compiled program can never see a differently-shaped
// tensor.
//
// The op vocabulary is deliberately the compressor's vocabulary — batched
// matmul against compile-time constants, gather/scatter with compile-time
// indices, reshape — plus the bit-manipulation ops (shift/and) that
// variable-length encoders need, which exist here so device compilers can
// *reject* them the way the real PyTorch backends do (§3.1
// "Programmability and Operator Support").
package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// OpKind enumerates the graph operators.
type OpKind int

const (
	// OpInput is a runtime-bound input tensor.
	OpInput OpKind = iota
	// OpConst is a compile-time constant (the fused LHS/RHS matrices).
	OpConst
	// OpMatMulRight computes x × W for constant-or-node W: batched over
	// the leading dimensions of x.
	OpMatMulRight
	// OpMatMulLeft computes W × x batched over x's leading dimensions.
	OpMatMulLeft
	// OpGather gathers along the last dimension with compile-time indices.
	OpGather
	// OpScatter scatters along the last dimension into width K.
	OpScatter
	// OpReshape reinterprets the shape (element count preserved).
	OpReshape
	// OpBitShift is a per-element integer bit shift. No AI accelerator
	// in the paper supports it from PyTorch; it exists so compilation
	// fails in the right place for VLE-style encoders.
	OpBitShift
	// OpBitAnd is a per-element integer AND, unsupported like OpBitShift.
	OpBitAnd
)

var opNames = map[OpKind]string{
	OpInput:       "input",
	OpConst:       "const",
	OpMatMulRight: "matmul",
	OpMatMulLeft:  "matmul_left",
	OpGather:      "gather",
	OpScatter:     "scatter",
	OpReshape:     "reshape",
	OpBitShift:    "bitshift",
	OpBitAnd:      "bitand",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Node is one operator instance with a fixed output shape.
type Node struct {
	ID      int
	Kind    OpKind
	Name    string
	Inputs  []*Node
	Shape   []int
	Value   *tensor.Tensor // OpConst payload
	Indices []int          // OpGather/OpScatter compile-time indices
	K       int            // OpScatter target width; OpBitShift amount
}

// Elems returns the number of elements in the node's output.
func (n *Node) Elems() int {
	e := 1
	for _, d := range n.Shape {
		e *= d
	}
	return e
}

// Bytes returns the output footprint at 4 bytes per element.
func (n *Node) Bytes() int { return 4 * n.Elems() }

// FLOPs returns the floating-point work of evaluating this node once.
func (n *Node) FLOPs() float64 {
	switch n.Kind {
	case OpMatMulRight:
		// x [..., m, k] × W [k, n]: 2mkn per trailing matrix.
		x, w := n.Inputs[0], n.Inputs[1]
		m := x.Shape[len(x.Shape)-2]
		k := x.Shape[len(x.Shape)-1]
		batch := x.Elems() / (m * k)
		return 2 * float64(batch) * float64(m) * float64(k) * float64(w.Shape[1])
	case OpMatMulLeft:
		w, x := n.Inputs[0], n.Inputs[1]
		k := x.Shape[len(x.Shape)-2]
		cols := x.Shape[len(x.Shape)-1]
		batch := x.Elems() / (k * cols)
		return 2 * float64(batch) * float64(w.Shape[0]) * float64(k) * float64(cols)
	default:
		return 0
	}
}

// Graph is an ordered DAG of nodes: Inputs feed the body, Outputs name
// the results. Nodes are stored in construction (topological) order.
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []*Node
	Outputs []*Node
}

// Builder constructs graphs with shape inference; the first error is
// latched and reported by Finish.
type Builder struct {
	g   *Graph
	err error
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}}
}

func (b *Builder) fail(format string, args ...any) *Node {
	if b.err == nil {
		b.err = fmt.Errorf("graph %q: "+format, append([]any{b.g.Name}, args...)...)
	}
	// Return a placeholder so construction can continue; Finish reports.
	return &Node{ID: -1, Shape: []int{0}}
}

func (b *Builder) add(n *Node) *Node {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// Input declares a runtime input of fixed shape.
func (b *Builder) Input(name string, shape ...int) *Node {
	for _, d := range shape {
		if d <= 0 {
			return b.fail("input %q has non-positive dimension in %v", name, shape)
		}
	}
	n := b.add(&Node{Kind: OpInput, Name: name, Shape: append([]int(nil), shape...)})
	b.g.Inputs = append(b.g.Inputs, n)
	return n
}

// Const embeds a compile-time constant tensor.
func (b *Builder) Const(name string, v *tensor.Tensor) *Node {
	return b.add(&Node{Kind: OpConst, Name: name, Shape: v.Shape(), Value: v})
}

// MatMulRight returns x × w (batched over x's leading dims).
func (b *Builder) MatMulRight(x, w *Node) *Node {
	if len(x.Shape) < 2 || len(w.Shape) != 2 {
		return b.fail("matmul needs [...,m,k] × [k,n], got %v × %v", x.Shape, w.Shape)
	}
	k := x.Shape[len(x.Shape)-1]
	if w.Shape[0] != k {
		return b.fail("matmul inner dims %v × %v", x.Shape, w.Shape)
	}
	shape := append([]int(nil), x.Shape...)
	shape[len(shape)-1] = w.Shape[1]
	return b.add(&Node{Kind: OpMatMulRight, Inputs: []*Node{x, w}, Shape: shape})
}

// MatMulLeft returns w × x (batched over x's leading dims).
func (b *Builder) MatMulLeft(w, x *Node) *Node {
	if len(x.Shape) < 2 || len(w.Shape) != 2 {
		return b.fail("matmul_left needs [m,k] × [...,k,n], got %v × %v", w.Shape, x.Shape)
	}
	if w.Shape[1] != x.Shape[len(x.Shape)-2] {
		return b.fail("matmul_left inner dims %v × %v", w.Shape, x.Shape)
	}
	shape := append([]int(nil), x.Shape...)
	shape[len(shape)-2] = w.Shape[0]
	return b.add(&Node{Kind: OpMatMulLeft, Inputs: []*Node{w, x}, Shape: shape})
}

// Gather gathers along the last dimension with compile-time indices.
func (b *Builder) Gather(x *Node, indices []int) *Node {
	if len(x.Shape) == 0 {
		return b.fail("gather on scalar")
	}
	k := x.Shape[len(x.Shape)-1]
	for _, ix := range indices {
		if ix < 0 || ix >= k {
			return b.fail("gather index %d out of [0,%d)", ix, k)
		}
	}
	shape := append([]int(nil), x.Shape...)
	shape[len(shape)-1] = len(indices)
	return b.add(&Node{Kind: OpGather, Inputs: []*Node{x}, Shape: shape, Indices: append([]int(nil), indices...)})
}

// Scatter scatters x's last dimension to width k at the given indices.
func (b *Builder) Scatter(x *Node, indices []int, k int) *Node {
	if len(x.Shape) == 0 || x.Shape[len(x.Shape)-1] != len(indices) {
		return b.fail("scatter needs last dim == len(indices)")
	}
	for _, ix := range indices {
		if ix < 0 || ix >= k {
			return b.fail("scatter index %d out of [0,%d)", ix, k)
		}
	}
	shape := append([]int(nil), x.Shape...)
	shape[len(shape)-1] = k
	return b.add(&Node{Kind: OpScatter, Inputs: []*Node{x}, Shape: shape, Indices: append([]int(nil), indices...), K: k})
}

// Reshape reinterprets x's shape.
func (b *Builder) Reshape(x *Node, shape ...int) *Node {
	e := 1
	for _, d := range shape {
		if d <= 0 {
			return b.fail("reshape to non-positive dim %v", shape)
		}
		e *= d
	}
	if e != x.Elems() {
		return b.fail("reshape %v → %v changes element count", x.Shape, shape)
	}
	return b.add(&Node{Kind: OpReshape, Inputs: []*Node{x}, Shape: append([]int(nil), shape...)})
}

// BitShift declares an integer bit shift by k (semantically on the
// float bits reinterpreted as int32, as a VLE packing step would do).
func (b *Builder) BitShift(x *Node, k int) *Node {
	return b.add(&Node{Kind: OpBitShift, Inputs: []*Node{x}, Shape: append([]int(nil), x.Shape...), K: k})
}

// BitAnd declares an integer AND against a constant mask node.
func (b *Builder) BitAnd(x, mask *Node) *Node {
	return b.add(&Node{Kind: OpBitAnd, Inputs: []*Node{x, mask}, Shape: append([]int(nil), x.Shape...)})
}

// Output marks a node as a graph output.
func (b *Builder) Output(n *Node) {
	if n.ID < 0 {
		b.fail("output of failed node")
		return
	}
	b.g.Outputs = append(b.g.Outputs, n)
}

// Finish returns the constructed graph or the first construction error.
func (b *Builder) Finish() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.g.Outputs) == 0 {
		return nil, fmt.Errorf("graph %q: no outputs", b.g.Name)
	}
	return b.g, nil
}

// TotalFLOPs sums the floating-point work of one execution.
func (g *Graph) TotalFLOPs() float64 {
	var f float64
	for _, n := range g.Nodes {
		f += n.FLOPs()
	}
	return f
}

// InputBytes sums the runtime input footprints (host→device traffic).
func (g *Graph) InputBytes() int {
	b := 0
	for _, n := range g.Inputs {
		b += n.Bytes()
	}
	return b
}

// OutputBytes sums the output footprints (device→host traffic).
func (g *Graph) OutputBytes() int {
	b := 0
	for _, n := range g.Outputs {
		b += n.Bytes()
	}
	return b
}
