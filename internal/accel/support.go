package accel

import "repro/internal/graph"

// CommonSupport returns the operator set every platform's PyTorch
// backend handles (§3.1): matrix multiplication, reshape, constants and
// inputs. Gather/scatter and the bitwise ops are deliberately absent —
// platforms that support them add them explicitly.
func CommonSupport() map[graph.OpKind]bool {
	return map[graph.OpKind]bool{
		graph.OpInput:       true,
		graph.OpConst:       true,
		graph.OpMatMulRight: true,
		graph.OpMatMulLeft:  true,
		graph.OpReshape:     true,
	}
}
