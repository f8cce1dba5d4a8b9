package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultMatchesResults runs the command with its default flags and
// holds its stdout to the committed results/fig3-heatmap.txt byte for
// byte: the synthetic images, the 8×8 DCT and the quantizer's rounding
// are deterministic, so any drift is a change in one of them or in the
// report rendering.
func TestDefaultMatchesResults(t *testing.T) {
	got := filepath.Join(t.TempDir(), "stdout.txt")
	stdout, err := os.Create(got)
	if err != nil {
		t.Fatal(err)
	}
	args, out := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = args, out }()
	os.Args, os.Stdout = []string{"acc-heatmap"}, stdout
	main()
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile("../../results/fig3-heatmap.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Error("stdout differs from results/fig3-heatmap.txt")
	}
}
