package tensor

import (
	"fmt"
	"math"
)

// Inverse returns the inverse of a square 2-D tensor, computed by
// Gauss-Jordan elimination with partial pivoting in float64. It exists
// for the non-orthogonal block transforms (the ZFP transform's inverse
// is not its transpose, unlike DCT-II's). Singular matrices return an
// error.
func Inverse(t *Tensor) (*Tensor, error) {
	if len(t.shape) != 2 || t.shape[0] != t.shape[1] {
		return nil, fmt.Errorf("tensor: Inverse requires a square matrix, got %v", t.shape)
	}
	n := t.shape[0]
	// Augmented [A | I] in float64.
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, 2*n)
		for j := 0; j < n; j++ {
			a[i][j] = float64(t.data[i*n+j])
		}
		a[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("tensor: Inverse of singular matrix (pivot %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for j := 0; j < 2*n; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				a[r][j] -= float64(f * a[col][j])
			}
		}
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.data[i*n+j] = float32(a[i][n+j])
		}
	}
	return out, nil
}
