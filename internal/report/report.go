// Package report renders the experiment harnesses' results as aligned
// text tables (for the terminal) and CSV (for plotting), one table per
// paper figure or table.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Table is an ordered set of rows under fixed headers.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns an empty table.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV emits the table as CSV with the headers first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes t as CSV to dir/name.csv, creating dir if
// needed. The file's Close error is returned too, so a failed final
// write never leaves a truncated CSV behind a successful exit.
func WriteCSVFile(t *Table, dir, name string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return t.WriteCSV(f)
}
