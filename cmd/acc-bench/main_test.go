package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAllMatchesResults runs the command as `acc-bench -all -csv DIR`
// and holds its stdout and every CSV it writes to the committed
// results/ files byte for byte: the figure and table modes are pure
// device simulation, so any drift is a change in the model or in the
// report rendering.
func TestAllMatchesResults(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	csvDir := filepath.Join(dir, "csv")
	args, out := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = args, out }()
	os.Args, os.Stdout = []string{"acc-bench", "-all", "-csv", csvDir}, stdout
	main()
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}

	sameFile(t, filepath.Join(dir, "stdout.txt"), "../../results/acc-bench.txt")
	csvs, err := filepath.Glob(filepath.Join(csvDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != 10 {
		t.Fatalf("wrote %d CSVs, want 10", len(csvs))
	}
	for _, p := range csvs {
		sameFile(t, p, filepath.Join("../../results", filepath.Base(p)))
	}
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("%s differs from %s", filepath.Base(got), want)
	}
}
