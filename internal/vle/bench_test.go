package vle_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sz"
	"repro/internal/tensor"
	"repro/internal/vle"
)

// fieldsCodes returns the quantization codes sz makes of one fields-sz
// record, a [4,8,128,128] CloudSeg batch at eb=1e-3, one slice per
// 128×128 plane as the codec registry codes them: each plane's vle
// stream, cut from its sz stream (28-byte header, code-stream length at
// byte 20), decoded.
func fieldsCodes(b *testing.B) [][]int32 {
	c, err := sz.New(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := datagen.NewCloudSeg(1, 128, 8).Batch(4)
	const hw = 128 * 128
	var planes [][]int32
	for p := 0; p < x.Len(); p += hw {
		data, err := c.EncodePlane(x.Data()[p:p+hw], 128, 128)
		if err != nil {
			b.Fatal(err)
		}
		codes := make([]int32, hw)
		if err := vle.DecodeFlatInto(codes, data[28:28+binary.LittleEndian.Uint32(data[20:])], 128); err != nil {
			b.Fatal(err)
		}
		planes = append(planes, codes)
	}
	return planes
}

// codesBytes is the size of planes' codes as int32s.
func codesBytes(planes [][]int32) int64 {
	n := 0
	for _, p := range planes {
		n += 4 * len(p)
	}
	return int64(n)
}

// BenchmarkAppendFlat codes one fields-sz record's codes plane by plane
// into a reused buffer, as sz's Compress does.
func BenchmarkAppendFlat(b *testing.B) {
	planes := fieldsCodes(b)
	buf := make([]byte, 0, 1<<17)
	b.SetBytes(codesBytes(planes))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, codes := range planes {
			if _, err := vle.AppendFlat(buf, codes, 128); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFlatLen sizes the same streams without coding them, as sz's
// fused round trip does.
func BenchmarkFlatLen(b *testing.B) {
	planes := fieldsCodes(b)
	b.SetBytes(codesBytes(planes))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, codes := range planes {
			if _, err := vle.FlatLen(codes, 128); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeFlatInto decodes 128×128 planes of codes in 128-value
// blocks, the fields-sz layout: small two-sided quantization-like codes
// in one plane, and one fields-sz record's own codes.
func BenchmarkDecodeFlatInto(b *testing.B) {
	for _, bc := range []struct {
		name   string
		planes func(*testing.B) [][]int32
	}{
		{"two-sided", func(*testing.B) [][]int32 {
			return [][]int32{vle.TwoSided(tensor.NewRNG(3), 128*128, 4, 1, 0)}
		}},
		{"fields-sz", fieldsCodes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			planes := bc.planes(b)
			streams := make([][]byte, len(planes))
			for p, codes := range planes {
				var err error
				if streams[p], err = vle.AppendFlat(nil, codes, 128); err != nil {
					b.Fatal(err)
				}
			}
			dst := make([]int32, 128*128)
			b.SetBytes(codesBytes(planes))
			b.ResetTimer()
			for range b.N {
				for _, data := range streams {
					if err := vle.DecodeFlatInto(dst, data, 128); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
