package core

import "repro/internal/tensor"

// Compressed is the output of Compressor.Compress: one payload tensor
// per spatial chunk (s×s chunks for partial serialization; exactly one
// for s=1). Chop-mode payloads are [BD, C, m, m]; SG payloads are
// [BD, C, L] with L = nblks²·CF(CF+1)/2.
type Compressed struct {
	Config    Config
	BatchSize int
	Channels  int
	N         int // original resolution
	Chunks    []*tensor.Tensor
}

// CompressedBytes is the storage footprint of the payload.
func (c *Compressed) CompressedBytes() int {
	total := 0
	for _, ch := range c.Chunks {
		total += ch.SizeBytes()
	}
	return total
}

// OriginalBytes is the footprint of the uncompressed batch.
func (c *Compressed) OriginalBytes() int {
	return 4 * c.BatchSize * c.Channels * c.N * c.N
}

// EffectiveRatio is the measured ratio OriginalBytes/CompressedBytes;
// it equals Config.Ratio() up to block-count rounding.
func (c *Compressed) EffectiveRatio() float64 {
	return float64(c.OriginalBytes()) / float64(c.CompressedBytes())
}
