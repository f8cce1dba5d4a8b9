package core

import (
	"fmt"
	"sync"

	"repro/internal/dct"
	"repro/internal/tensor"
)

// Compressor is a compiled DCT+Chop compressor for a fixed input
// resolution. Mirroring the accelerators' compile-time constraints
// (§3.1 "Tensor Sizes"), the fused LHS/RHS matrices — and for SG the
// gather indices — are precomputed in NewCompressor and the resolution
// cannot vary afterwards; only the batch and channel dimensions are
// free, because they batch identical plane-level products.
//
// Two execution paths exist. The hot path (Compress, Decompress,
// CompressInto, DecompressInto, RoundTrip) runs the structure-aware
// separable dct.Kernel, which skips the chopped rows of the fused
// matrices entirely and reuses pooled scratch so the Into variants
// allocate nothing in steady state. The dense path (CompressDense,
// DecompressDense, RoundTripDense) runs the paper's literal two batched
// matmuls against the full LHS/RHS and is kept as the reference oracle
// the fast kernel is validated against.
type Compressor struct {
	cfg Config
	n   int // full input resolution (images are n×n)

	// Chunk-level compiled state; chunk resolution is n/s.
	chunkN int
	m      int            // compressed plane width: CF·chunkN/blocksize
	lhs    *tensor.Tensor // M·T_L, m×chunkN (compression left operand)
	rhs    *tensor.Tensor // T_Lᵀ·Mᵀ = LHSᵀ, chunkN×m (compression right)
	// Decompression operands. For the orthonormal DCT these alias
	// rhs/lhs (the paper's Eq. 6 swap); for the non-orthogonal ZFP
	// transform they are built from T_L⁻¹ instead of T_Lᵀ:
	// A' = (T_L⁻¹·Mᵀ)·Y·(T_L⁻¹·Mᵀ)ᵀ.
	dlhs *tensor.Tensor // chunkN×m (decompression left operand)
	drhs *tensor.Tensor // m×chunkN (decompression right operand)

	// SG state: flat per-plane indices of the retained triangle cells in
	// the m×m chopped plane, precomputed at compile time (§3.5.2: "the
	// indices can be computed at compile time and need not be stored").
	triIdx []int

	// Fast-path state: the separable block kernel plus free lists of
	// per-plane scratch and job descriptors. The free lists are plain
	// mutex-guarded slices rather than sync.Pools so warm buffers are
	// never dropped by the GC — the zero-allocation guarantee of the
	// Into methods is deterministic.
	kern      *dct.Kernel
	scratchMu sync.Mutex
	scratches []*kernScratch
	jobs      []*planeJob
	compPool  sync.Pool // *Compressed for Acquire/ReleaseCompressed
}

// kernScratch is one plane-worker's reusable working set.
type kernScratch struct {
	buf []float32 // half-transformed plane, chunkN×m (forward) / m×chunkN (inverse)
	sq  []float32 // full m×m chopped plane, SG gather/scatter staging (nil in chop mode)
}

// NewCompressor compiles a compressor for n×n inputs under cfg.
func NewCompressor(cfg Config, n int) (*Compressor, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	bs := cfg.blockSize()
	chunkN := n / cfg.Serialization
	nblks := chunkN / bs
	c := &Compressor{
		cfg:    cfg,
		n:      n,
		chunkN: chunkN,
		m:      cfg.ChopFactor * nblks,
	}
	c.compPool.New = func() any { return new(Compressed) }
	tmat := cfg.Transform.Matrix()
	mask := dct.ChopMask(chunkN, cfg.ChopFactor, bs)
	tl := dct.BlockDiag(tmat, nblks)
	c.lhs = tensor.MatMul(mask, tl)
	c.rhs = c.lhs.Transpose()
	if cfg.Transform == TransformDCT8 {
		// Orthonormal transform: T_L⁻¹ = T_Lᵀ, so decompression reuses
		// the compression operands swapped — the paper's formulation.
		c.dlhs = c.rhs
		c.drhs = c.lhs
		c.kern = dct.NewKernel(tmat, tmat.Transpose(), cfg.ChopFactor)
	} else {
		inv, err := tensor.Inverse(tmat)
		if err != nil {
			return nil, fmt.Errorf("core: transform not invertible: %w", err)
		}
		c.dlhs = tensor.MatMul(dct.BlockDiag(inv, nblks), mask.Transpose())
		c.drhs = c.dlhs.Transpose()
		c.kern = dct.NewKernel(tmat, inv, cfg.ChopFactor)
	}
	if cfg.Mode == ModeSG {
		c.triIdx = triangleFlatIndices(cfg.ChopFactor, nblks)
	}
	return c, nil
}

// triangleFlatIndices returns the flat offsets, within an m×m chopped
// plane (m = cf·nblks), of the upper-left-triangle cells of every cf×cf
// block, in block-major row-major order.
func triangleFlatIndices(cf, nblks int) []int {
	m := cf * nblks
	tri := dct.TriangleIndices(cf, cf) // i*cf+j with i+j<cf
	idx := make([]int, 0, nblks*nblks*len(tri))
	for bi := 0; bi < nblks; bi++ {
		for bj := 0; bj < nblks; bj++ {
			for _, t := range tri {
				i, j := t/cf, t%cf
				idx = append(idx, (bi*cf+i)*m+(bj*cf+j))
			}
		}
	}
	return idx
}

// Config returns the compressor's configuration.
func (c *Compressor) Config() Config { return c.cfg }

// CompressedPlaneShape reports the per-chunk compressed layout: for chop
// mode an m×m matrix, for SG a flat vector of triangle values.
func (c *Compressor) CompressedPlaneShape() []int {
	if c.cfg.Mode == ModeSG {
		return []int{len(c.triIdx)}
	}
	return []int{c.m, c.m}
}

// ChunkValues returns the number of float32 values in one chunk's
// payload per plane (BD = C = 1): m² for chop mode, the triangle count
// for SG. The total per-plane payload is s²·ChunkValues values.
func (c *Compressor) ChunkValues() int {
	if c.cfg.Mode == ModeSG {
		return len(c.triIdx)
	}
	return c.m * c.m
}

// getScratch pops (or grows) a plane working set. The free list never
// shrinks, so after every worker has been through one plane the steady
// state performs no allocation.
func (c *Compressor) getScratch() *kernScratch {
	c.scratchMu.Lock()
	if n := len(c.scratches); n > 0 {
		s := c.scratches[n-1]
		c.scratches = c.scratches[:n-1]
		c.scratchMu.Unlock()
		return s
	}
	c.scratchMu.Unlock()
	s := &kernScratch{buf: make([]float32, c.kern.ScratchLen(c.chunkN))}
	if c.cfg.Mode == ModeSG {
		s.sq = make([]float32, c.m*c.m)
	}
	return s
}

func (c *Compressor) putScratch(s *kernScratch) {
	c.scratchMu.Lock()
	c.scratches = append(c.scratches, s)
	c.scratchMu.Unlock()
}

func (c *Compressor) getJob() *planeJob {
	c.scratchMu.Lock()
	defer c.scratchMu.Unlock()
	if n := len(c.jobs); n > 0 {
		j := c.jobs[n-1]
		c.jobs = c.jobs[:n-1]
		return j
	}
	return &planeJob{c: c}
}

func (c *Compressor) putJob(j *planeJob) {
	j.x, j.y = nil, nil
	c.scratchMu.Lock()
	c.jobs = append(c.jobs, j)
	c.scratchMu.Unlock()
}

// planeJob is one CompressInto/DecompressInto invocation's work
// descriptor: plane p of tensor.ParallelPlanes maps to (sample-channel
// plane, spatial chunk). It is pooled and passed by pointer so the
// interface conversion does not allocate.
type planeJob struct {
	c      *Compressor
	x      []float32 // full-resolution batch data (input or output)
	y      *Compressed
	decomp bool
}

// RunPlane transforms one spatial chunk of one sample-channel plane.
// For s>1 the chunk is addressed in place inside the parent plane via
// the kernel's row stride — no chunk copy is materialized (the dense
// path's SpatialChunk/SpatialUnchunk disappear from the hot loop).
func (j *planeJob) RunPlane(p int) {
	c := j.c
	s := c.cfg.Serialization
	ss := s * s
	pi, ci := p/ss, p%ss
	r, q := ci/s, ci%s
	n, cn, m := c.n, c.chunkN, c.m
	base := pi*n*n + r*cn*n + q*cn
	vals := c.ChunkValues()
	payload := j.y.Chunks[ci].Data()[pi*vals : (pi+1)*vals]
	sc := c.getScratch()
	switch {
	case !j.decomp && c.cfg.Mode == ModeSG:
		c.kern.Forward(sc.sq, m, j.x[base:], n, cn, sc.buf)
		for k, ix := range c.triIdx {
			payload[k] = sc.sq[ix]
		}
	case !j.decomp:
		c.kern.Forward(payload, m, j.x[base:], n, cn, sc.buf)
	case c.cfg.Mode == ModeSG:
		for i := range sc.sq {
			sc.sq[i] = 0
		}
		for k, ix := range c.triIdx {
			sc.sq[ix] = payload[k]
		}
		c.kern.Inverse(j.x[base:], n, sc.sq, m, cn, sc.buf)
	default:
		c.kern.Inverse(j.x[base:], n, payload, m, cn, sc.buf)
	}
	c.putScratch(sc)
}

// chunkFits reports whether t can hold one chunk's payload for a bd×ch
// batch without reallocation (shape and layout both match).
func (c *Compressor) chunkFits(t *tensor.Tensor, bd, ch int) bool {
	if t == nil || t.Dim(0) != bd || t.Dim(1) != ch {
		return false
	}
	if c.cfg.Mode == ModeSG {
		return t.Dims() == 3 && t.Dim(2) == len(c.triIdx)
	}
	return t.Dims() == 4 && t.Dim(2) == c.m && t.Dim(3) == c.m
}

// prepareCompressed shapes dst for a bd×ch batch, reusing its chunk
// tensors whenever they already fit. Only the first call (or a batch
// shape change) allocates.
func (c *Compressor) prepareCompressed(dst *Compressed, bd, ch int) {
	dst.Config = c.cfg
	dst.BatchSize = bd
	dst.Channels = ch
	dst.N = c.n
	ss := c.cfg.Serialization * c.cfg.Serialization
	if cap(dst.Chunks) < ss {
		dst.Chunks = make([]*tensor.Tensor, ss)
	}
	dst.Chunks = dst.Chunks[:ss]
	for i, chunk := range dst.Chunks {
		if chunk != nil && chunk.Dims() >= 2 && c.chunkFits(chunk, bd, ch) {
			continue
		}
		if c.cfg.Mode == ModeSG {
			dst.Chunks[i] = tensor.New(bd, ch, len(c.triIdx))
		} else {
			dst.Chunks[i] = tensor.New(bd, ch, c.m, c.m)
		}
	}
}

// NewCompressed returns a freshly allocated payload sized for a bd×ch
// batch, ready for CompressInto.
func (c *Compressor) NewCompressed(bd, ch int) *Compressed {
	dst := &Compressed{}
	c.prepareCompressed(dst, bd, ch)
	return dst
}

// AcquireCompressed returns a pooled payload buffer (shaped by the next
// CompressInto). Pair with ReleaseCompressed once the payload is no
// longer referenced; the pool keeps steady-state round trips from
// allocating payload storage per batch.
func (c *Compressor) AcquireCompressed() *Compressed {
	return c.compPool.Get().(*Compressed)
}

// ReleaseCompressed returns a payload obtained from AcquireCompressed
// (or any Compressed produced by this compressor that the caller no
// longer uses) to the pool.
func (c *Compressor) ReleaseCompressed(y *Compressed) {
	c.compPool.Put(y)
}

// Compress compresses a [BD, C, n, n] batch on the fast-kernel path. For
// s=1 this is exactly the paper's fused transform; for s>1 the s×s
// spatial chunks are transformed in place within each plane (Fig. 5).
func (c *Compressor) Compress(x *tensor.Tensor) (*Compressed, error) {
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	dst := &Compressed{}
	if err := c.CompressInto(dst, x); err != nil {
		return nil, err
	}
	return dst, nil
}

// CompressInto compresses x into dst, reusing dst's payload tensors when
// they fit. After the first call with a given batch shape, subsequent
// calls perform no heap allocation.
func (c *Compressor) CompressInto(dst *Compressed, x *tensor.Tensor) error {
	if err := c.checkInput(x); err != nil {
		return err
	}
	bd, ch := x.Dim(0), x.Dim(1)
	c.prepareCompressed(dst, bd, ch)
	j := c.getJob()
	j.x = x.Data()
	j.y = dst
	j.decomp = false
	tensor.ParallelPlanes(bd*ch*len(dst.Chunks), j)
	c.putJob(j)
	return nil
}

// Decompress reconstructs a [BD, C, n, n] batch from compressed form on
// the fast-kernel path.
func (c *Compressor) Decompress(y *Compressed) (*tensor.Tensor, error) {
	if err := c.checkCompressed(y); err != nil {
		return nil, err
	}
	out := tensor.New(y.BatchSize, y.Channels, c.n, c.n)
	if err := c.DecompressInto(out, y); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto reconstructs y into dst, which must already have shape
// [BD, C, n, n] matching y. It performs no heap allocation in steady
// state.
func (c *Compressor) DecompressInto(dst *tensor.Tensor, y *Compressed) error {
	if err := c.checkCompressed(y); err != nil {
		return err
	}
	bd, ch := y.BatchSize, y.Channels
	if dst.Dims() != 4 || dst.Dim(0) != bd || dst.Dim(1) != ch || dst.Dim(2) != c.n || dst.Dim(3) != c.n {
		return fmt.Errorf("core: DecompressInto dst %v, want [%d,%d,%d,%d]", dst.Shape(), bd, ch, c.n, c.n)
	}
	vals := bd * ch * c.ChunkValues()
	for i, chunk := range y.Chunks {
		if chunk.Len() != vals {
			return fmt.Errorf("core: compressed chunk %d holds %d values, want %d", i, chunk.Len(), vals)
		}
	}
	j := c.getJob()
	j.x = dst.Data()
	j.y = y
	j.decomp = true
	tensor.ParallelPlanes(bd*ch*len(y.Chunks), j)
	c.putJob(j)
	return nil
}

// RoundTrip compresses then decompresses x, returning the reconstruction —
// the exact operation the training harness applies to each batch. The
// intermediate payload comes from the compressor's pool, so only the
// output tensor is allocated.
func (c *Compressor) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	out := tensor.New(x.Dim(0), x.Dim(1), c.n, c.n)
	if err := c.RoundTripInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// RoundTripInto is the allocation-free round trip: compress x with a
// pooled payload, decompress into dst.
func (c *Compressor) RoundTripInto(dst, x *tensor.Tensor) error {
	y := c.AcquireCompressed()
	defer c.ReleaseCompressed(y)
	if err := c.CompressInto(y, x); err != nil {
		return err
	}
	return c.DecompressInto(dst, y)
}

// CompressDense is the reference oracle: the paper's literal two batched
// matmuls against the full fused LHS/RHS, with s×s chunks materialized
// serially (Fig. 5). The fast kernel is validated against it; benches
// measure what the structure-aware path buys over it.
func (c *Compressor) CompressDense(x *tensor.Tensor) (*Compressed, error) {
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	s := c.cfg.Serialization
	var chunks []*tensor.Tensor
	if s == 1 {
		chunks = []*tensor.Tensor{c.compressChunkDense(x)}
	} else {
		// Serial by design: the point of the optimization is that only
		// one chunk's working set is resident at a time.
		chunks = make([]*tensor.Tensor, 0, s*s)
		for _, sub := range tensor.SpatialChunk(x, s) {
			chunks = append(chunks, c.compressChunkDense(sub))
		}
	}
	return &Compressed{
		Config:    c.cfg,
		BatchSize: x.Dim(0),
		Channels:  x.Dim(1),
		N:         c.n,
		Chunks:    chunks,
	}, nil
}

// compressChunkDense runs Y = LHS·A·RHS on one [BD, C, cn, cn] chunk,
// then in SG mode gathers the triangle payload.
func (c *Compressor) compressChunkDense(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.BatchedMatMul(tensor.BatchedMatMulLeft(c.lhs, x), c.rhs)
	if c.cfg.Mode != ModeSG {
		return y
	}
	bd, ch := y.Dim(0), y.Dim(1)
	flat := y.Reshape(bd, ch, c.m*c.m)
	return tensor.GatherLast(flat, c.triIdx)
}

// DecompressDense is the dense-matmul reference decompression.
func (c *Compressor) DecompressDense(y *Compressed) (*tensor.Tensor, error) {
	if err := c.checkCompressed(y); err != nil {
		return nil, err
	}
	s := c.cfg.Serialization
	if s == 1 {
		return c.decompressChunkDense(y.Chunks[0]), nil
	}
	out := make([]*tensor.Tensor, len(y.Chunks))
	for i, chunk := range y.Chunks {
		out[i] = c.decompressChunkDense(chunk)
	}
	return tensor.SpatialUnchunk(out, s), nil
}

func (c *Compressor) decompressChunkDense(y *tensor.Tensor) *tensor.Tensor {
	if c.cfg.Mode == ModeSG {
		bd, ch := y.Dim(0), y.Dim(1)
		restored := tensor.ScatterLast(y, c.triIdx, c.m*c.m)
		y = restored.Reshape(bd, ch, c.m, c.m)
	}
	return tensor.BatchedMatMul(tensor.BatchedMatMulLeft(c.dlhs, y), c.drhs)
}

// RoundTripDense is the dense-path round trip, the pre-kernel behaviour.
func (c *Compressor) RoundTripDense(x *tensor.Tensor) (*tensor.Tensor, error) {
	y, err := c.CompressDense(x)
	if err != nil {
		return nil, err
	}
	return c.DecompressDense(y)
}

func (c *Compressor) checkInput(x *tensor.Tensor) error {
	if x.Dims() != 4 {
		return fmt.Errorf("core: input must be [BD,C,n,n], got %v", x.Shape())
	}
	if x.Dim(2) != c.n || x.Dim(3) != c.n {
		return fmt.Errorf("core: input resolution %dx%d does not match compiled resolution %d (tensor sizes are fixed at compile time)", x.Dim(2), x.Dim(3), c.n)
	}
	return nil
}

func (c *Compressor) checkCompressed(y *Compressed) error {
	if y.Config != c.cfg {
		return fmt.Errorf("core: compressed config %v does not match compressor %v", y.Config, c.cfg)
	}
	if y.N != c.n {
		return fmt.Errorf("core: compressed resolution %d does not match compiled resolution %d", y.N, c.n)
	}
	s := c.cfg.Serialization
	if len(y.Chunks) != s*s {
		return fmt.Errorf("core: compressed has %d chunks, want %d", len(y.Chunks), s*s)
	}
	return nil
}
