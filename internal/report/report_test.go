package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Table {
	t := New("Fig. X", "device", "CR", "GB/s")
	t.Add("CS-2", 4.0, 22.31234)
	t.Add("IPU", float32(16), "COMPILE FAIL")
	return t
}

func TestWriteToAlignsColumns(t *testing.T) {
	var sb strings.Builder
	if _, err := sample().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== Fig. X ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows → 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	// Columns align: every data line has the header's column starts.
	header := lines[1]
	crCol := strings.Index(header, "CR")
	for _, line := range lines[3:] {
		if len(line) <= crCol {
			t.Fatalf("row shorter than header: %q", line)
		}
	}
	if !strings.Contains(out, "22.31") {
		t.Fatalf("float formatting missing: %s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := sample().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "device,CR,GB/s" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "CS-2,4,") {
		t.Fatalf("CSV row %q", lines[1])
	}
}

func TestWriteCSVFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := WriteCSVFile(sample(), dir, "figx"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "figx.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := sample().WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("file holds\n%s\nwant\n%s", got, want.String())
	}
	// A directory that cannot be created is an error, not a silent skip.
	if err := WriteCSVFile(sample(), filepath.Join(dir, "figx.csv"), "y"); err == nil {
		t.Fatal("WriteCSVFile under a regular file succeeded")
	}
}

func TestEmptyTable(t *testing.T) {
	tb := New("", "a", "b")
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "==") {
		t.Fatal("untitled table must not render a title banner")
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("t", "v")
	tb.Add(3.14159265)
	tb.Add(1e-7)
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3.142") {
		t.Fatalf("want 4-sig-fig float: %s", sb.String())
	}
}
