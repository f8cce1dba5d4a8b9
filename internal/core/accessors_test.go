package core

import "testing"

func TestCompressorAccessors(t *testing.T) {
	cfg := Config{ChopFactor: 4, Serialization: 1}
	c := mustCompressor(t, cfg, 32)
	if c.Config() != cfg {
		t.Fatalf("Config() = %v", c.Config())
	}
	shape := c.CompressedPlaneShape()
	if len(shape) != 2 || shape[0] != 16 || shape[1] != 16 {
		t.Fatalf("CompressedPlaneShape = %v", shape)
	}
	if c.triIdx != nil {
		t.Fatal("chop mode has no triangle indices")
	}
	// RHS is LHSᵀ for the orthonormal DCT.
	if d := c.rhs.MaxAbsDiff(c.lhs.Transpose()); d != 0 {
		t.Fatalf("RHS != LHSᵀ by %g", d)
	}

	sg := mustCompressor(t, Config{ChopFactor: 3, Mode: ModeSG, Serialization: 1}, 32)
	sgShape := sg.CompressedPlaneShape()
	if len(sgShape) != 1 || sgShape[0] != 16*6 {
		t.Fatalf("SG plane shape %v, want [96]", sgShape)
	}
	if len(sg.triIdx) != 96 {
		t.Fatalf("SG triangle indices %d", len(sg.triIdx))
	}
}

func TestConfigStringVariants(t *testing.T) {
	cases := map[string]Config{
		"CF=4 CR=4.00 DCT+Chop":         {ChopFactor: 4, Serialization: 1},
		"CF=4 CR=6.40 DCT+Chop+SG":      {ChopFactor: 4, Mode: ModeSG, Serialization: 1},
		"CF=4 CR=4.00 DCT+Chop s=2":     {ChopFactor: 4, Serialization: 2},
		"CF=2 CR=4.00 DCT+Chop ZFP4":    {ChopFactor: 2, Serialization: 1, Transform: TransformZFP4},
		"CF=2 CR=5.33 DCT+Chop+SG ZFP4": {ChopFactor: 2, Mode: ModeSG, Serialization: 1, Transform: TransformZFP4},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if ModeChop.String() != "DCT+Chop" || ModeSG.String() != "DCT+Chop+SG" {
		t.Fatal("mode strings wrong")
	}
	if Mode(7).String() == "" || TransformKind(9).String() == "" {
		t.Fatal("unknown enums must still render")
	}
}
