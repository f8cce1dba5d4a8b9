package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTablesMatchResults runs the command as `acc-train -table2
// -table3 -csv DIR` and holds both CSVs to the committed results/
// files byte for byte.
func TestTablesMatchResults(t *testing.T) {
	dir := t.TempDir()
	devNull, err := os.Create(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	args, out := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = args, out }()
	os.Args, os.Stdout = []string{"acc-train", "-table2", "-table3", "-csv", dir}, devNull
	main()

	for _, name := range []string{"table2.csv", "table3.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../../results", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from results/%s", name, name)
		}
	}
}
