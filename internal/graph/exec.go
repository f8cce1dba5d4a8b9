package graph

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Execute evaluates the graph on the host tensor engine. Inputs are
// bound by name; every declared input must be supplied with exactly the
// compiled shape (the static-shape contract all four accelerator
// compilers impose). Returns one tensor per declared output.
func (g *Graph) Execute(inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	vals := make([]*tensor.Tensor, len(g.Nodes))
	for _, in := range g.Inputs {
		t, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("graph %q: missing input %q", g.Name, in.Name)
		}
		if !shapeEq(t.Shape(), in.Shape) {
			return nil, fmt.Errorf("graph %q: input %q has shape %v, compiled for %v (tensor sizes are fixed at compile time)", g.Name, in.Name, t.Shape(), in.Shape)
		}
		vals[in.ID] = t
	}
	for _, n := range g.Nodes {
		if vals[n.ID] != nil {
			continue // input already bound
		}
		v, err := evalNode(n, vals)
		if err != nil {
			return nil, fmt.Errorf("graph %q node %d (%s): %w", g.Name, n.ID, n.Kind, err)
		}
		vals[n.ID] = v
	}
	outs := make([]*tensor.Tensor, len(g.Outputs))
	for i, o := range g.Outputs {
		outs[i] = vals[o.ID]
	}
	return outs, nil
}

func evalNode(n *Node, vals []*tensor.Tensor) (*tensor.Tensor, error) {
	in := func(i int) *tensor.Tensor { return vals[n.Inputs[i].ID] }
	switch n.Kind {
	case OpConst:
		return n.Value, nil
	case OpMatMulRight:
		return tensor.BatchedMatMul(in(0), in(1)), nil
	case OpMatMulLeft:
		return tensor.BatchedMatMulLeft(in(0), in(1)), nil
	case OpGather:
		return tensor.GatherLast(in(0), n.Indices), nil
	case OpScatter:
		return tensor.ScatterLast(in(0), n.Indices, n.K), nil
	case OpReshape:
		return in(0).Reshape(n.Shape...), nil
	case OpBitShift:
		// Reinterpret the float32 bits as uint32 and shift — the packing
		// primitive VLE encoders need. Host execution supports it; the
		// accelerator compilers reject it before Run is ever reached.
		out := in(0).Clone()
		d := out.Data()
		for i, v := range d {
			bits := math.Float32bits(v)
			if n.K >= 0 {
				bits <<= uint(n.K)
			} else {
				bits >>= uint(-n.K)
			}
			d[i] = math.Float32frombits(bits)
		}
		return out, nil
	case OpBitAnd:
		x, m := in(0), in(1)
		if x.Len() != m.Len() {
			return nil, fmt.Errorf("bitand operand sizes %d vs %d", x.Len(), m.Len())
		}
		out := x.Clone()
		d, md := out.Data(), m.Data()
		for i := range d {
			d[i] = math.Float32frombits(math.Float32bits(d[i]) & math.Float32bits(md[i]))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown op kind %v", n.Kind)
	}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
