package tensor

import "fmt"

// GatherLast collects elements along the last dimension: for every
// leading index b, out[b][j] = t[b][indices[j]]. This mirrors the
// torch.gather call of the Graphcore SG optimization (§3.5.2), where
// precomputed upper-left-triangle indices pull the retained DCT
// coefficients out of each chopped block row.
//
// t has shape [..., k]; the result has shape [..., len(indices)].
func GatherLast(t *Tensor, indices []int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: GatherLast on 0-d tensor")
	}
	k := t.shape[len(t.shape)-1]
	for _, ix := range indices {
		if ix < 0 || ix >= k {
			panic(fmt.Sprintf("tensor: GatherLast index %d out of range [0,%d)", ix, k))
		}
	}
	rows := len(t.data) / k
	outShape := cloneInts(t.shape)
	outShape[len(outShape)-1] = len(indices)
	out := New(outShape...)
	for r := 0; r < rows; r++ {
		src := t.data[r*k : (r+1)*k]
		dst := out.data[r*len(indices) : (r+1)*len(indices)]
		for j, ix := range indices {
			dst[j] = src[ix]
		}
	}
	return out
}

// ScatterLast is the inverse of GatherLast: it places t's last-dimension
// elements at the given indices of a zero-initialized output with last
// dimension k (torch.scatter in the paper's decompression path).
//
// t has shape [..., len(indices)]; the result has shape [..., k].
func ScatterLast(t *Tensor, indices []int, k int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: ScatterLast on 0-d tensor")
	}
	w := t.shape[len(t.shape)-1]
	if w != len(indices) {
		panic(fmt.Sprintf("tensor: ScatterLast last dim %d != len(indices) %d", w, len(indices)))
	}
	for _, ix := range indices {
		if ix < 0 || ix >= k {
			panic(fmt.Sprintf("tensor: ScatterLast index %d out of range [0,%d)", ix, k))
		}
	}
	rows := len(t.data) / w
	outShape := cloneInts(t.shape)
	outShape[len(outShape)-1] = k
	out := New(outShape...)
	for r := 0; r < rows; r++ {
		src := t.data[r*w : (r+1)*w]
		dst := out.data[r*k : (r+1)*k]
		for j, ix := range indices {
			dst[ix] = src[j]
		}
	}
	return out
}
