//go:build amd64 && !purego

package dct

// fwdBand8AVX2 runs the forward row pass over 8 consecutive plane rows:
// for each row r < 8 and block blk < nblks,
// dst[r*dstStride+blk*cf+c] = Σ_{p<8} src[r*srcStride+blk*8+p]·F[c,p],
// bit-identical to the portable loop. tab is the Kernel's forward
// broadcast table; mask must point at 8 int32 lanes with the first cf
// set (laneMask[cf]).
//
//go:noescape
func fwdBand8AVX2(dst *float32, dstStride int, src *float32, srcStride int, nblks, cf int, tab *float32, mask *int32)

// invRowsAVX2 runs the inverse row pass over rows chopped rows:
// dst[r*dstStride+blk*8+q] = Σ_{c<cf} src[r*srcStride+blk*cf+c]·G[q,c],
// with cols the Kernel's 8×8 table of G columns (cols[c*8+q] = G[q,c]).
//
//go:noescape
func invRowsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, nblks, cf int, cols *float32)

// fwdColAVX2 runs the forward column pass of one block row: the cf
// output rows dst[r*dstStride+j] = Σ_{p<b, F[r,p]≠0} F[r,p]·src[p*srcStride+j]
// for j < cols, matching the portable axpy chain including its
// zero-coefficient skip. tab and mask are the Kernel's forward tables;
// tail is laneMask[cols%8].
//
//go:noescape
func fwdColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32)

// invColAVX2 runs the inverse column pass of one block row: the b
// output rows dst[q*dstStride+j] = Σ_{c<cf, G[q,c]≠0} G[q,c]·src[c*srcStride+j]
// for j < cols, with the Kernel's inverse tables.
//
//go:noescape
func invColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32)
