// Package core implements the paper's contribution: the DCT+Chop lossy
// compressor for AI-accelerator training pipelines. Compression is two
// matrix multiplications, Y = (M·T_L)·A·(T_Lᵀ·Mᵀ) (Eq. 4); decompression
// swaps the fused operands, A' = (T_Lᵀ·Mᵀ)·Y·(M·T_L) (Eq. 6). Both fused
// matrices are computed once, at "compile time", exactly as on the real
// accelerators where tensor sizes must be static.
//
// Two optimizations from §3.5 are included: partially-serialized
// compression (subdivide each sample spatially by a factor s and process
// the s×s chunks serially, shrinking the compile-time matrices by s×s)
// and the Graphcore scatter/gather variant (retain the upper-left
// triangle of each chopped block instead of the full square, improving
// CR by 2·CF/(CF+1)).
package core

import (
	"fmt"

	"repro/internal/dct"
	"repro/internal/tensor"
)

// Mode selects the retention scheme applied after the DCT.
type Mode int

const (
	// ModeChop retains the upper-left CF×CF square of every 8×8 block —
	// the baseline DCT+Chop design (DC in the paper's evaluation).
	ModeChop Mode = iota
	// ModeSG additionally gathers only the upper-left triangle
	// (i+j < CF) of each chopped block via precomputed indices — the
	// Graphcore torch.scatter/torch.gather optimization (SG).
	ModeSG
)

func (m Mode) String() string {
	switch m {
	case ModeChop:
		return "DCT+Chop"
	case ModeSG:
		return "DCT+Chop+SG"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TransformKind selects the decorrelating block transform.
type TransformKind int

const (
	// TransformDCT8 is the paper's transform: DCT-II on 8×8 blocks.
	TransformDCT8 TransformKind = iota
	// TransformZFP4 is the future-work alternative (§6): the ZFP block
	// transform on 4×4 blocks — non-orthogonal but linear, so it runs
	// through the same fused two-matmul pipeline and remains portable.
	TransformZFP4
)

// BlockSizeOf returns the transform's block edge.
func (k TransformKind) BlockSizeOf() int {
	if k == TransformZFP4 {
		return dct.ZFPBlockSize
	}
	return dct.BlockSize
}

// Matrix returns the transform's b×b matrix.
func (k TransformKind) Matrix() *tensor.Tensor {
	if k == TransformZFP4 {
		return dct.ZFPBlockTransform()
	}
	return dct.Transform(dct.BlockSize)
}

func (k TransformKind) String() string {
	if k == TransformZFP4 {
		return "ZFP4"
	}
	return "DCT8"
}

// Config describes one compressor configuration. The zero value is not
// valid; use Validate (or NewCompressor, which validates) before use.
type Config struct {
	// ChopFactor is CF ∈ [1, block size]: the per-block retained corner
	// width. The paper evaluates CF ∈ [2,7] at block size 8.
	ChopFactor int
	// Mode selects square (chop) or triangle (scatter/gather) retention.
	Mode Mode
	// Serialization is the partial-serialization factor s (§3.5.1);
	// s=1 disables subdivision. The input resolution must be divisible
	// by blocksize·s so every chunk is a whole number of blocks.
	Serialization int
	// Transform selects the block transform; the zero value is the
	// paper's 8×8 DCT-II.
	Transform TransformKind
}

// blockSize returns the configured transform's block edge.
func (c Config) blockSize() int { return c.Transform.BlockSizeOf() }

// Validate checks the configuration against an input resolution n
// (images are n×n).
func (c Config) Validate(n int) error {
	bs := c.blockSize()
	if c.Transform != TransformDCT8 && c.Transform != TransformZFP4 {
		return fmt.Errorf("core: unknown transform %d", int(c.Transform))
	}
	if c.ChopFactor < 1 || c.ChopFactor > bs {
		return fmt.Errorf("core: chop factor %d outside [1,%d]", c.ChopFactor, bs)
	}
	if c.Mode != ModeChop && c.Mode != ModeSG {
		return fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	s := c.Serialization
	if s < 1 {
		return fmt.Errorf("core: serialization factor %d must be ≥ 1", s)
	}
	if n <= 0 {
		return fmt.Errorf("core: resolution %d must be positive", n)
	}
	if n%(bs*s) != 0 {
		return fmt.Errorf("core: resolution %d not divisible by block size × serialization = %d", n, bs*s)
	}
	return nil
}

// Ratio returns the compression ratio of this configuration: bs²/CF²
// for chop (Eq. 3 at bs=8 gives 64/CF²), bs²/(CF(CF+1)/2) for the SG
// triangle variant. Serialization does not change the ratio.
func (c Config) Ratio() float64 {
	area := float64(c.blockSize() * c.blockSize())
	switch c.Mode {
	case ModeSG:
		return area / float64(dct.TriangleCount(c.ChopFactor))
	default:
		return area / float64(c.ChopFactor*c.ChopFactor)
	}
}

// String renders the configuration the way the paper's figures label
// series ("CF=4 CR=4.00 DCT+Chop s=2").
func (c Config) String() string {
	s := fmt.Sprintf("CF=%d CR=%.2f %s", c.ChopFactor, c.Ratio(), c.Mode)
	if c.Serialization > 1 {
		s += fmt.Sprintf(" s=%d", c.Serialization)
	}
	if c.Transform != TransformDCT8 {
		s += " " + c.Transform.String()
	}
	return s
}
