package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// maxLine bounds one input line of ScanRows: a million bytes is some tens of
// thousands of coordinates.
const maxLine = 1 << 20

// ScanRows reads whitespace-separated vectors, one per line, and hands each
// to fn with its 1-based line number as it is read; blank lines are skipped.
// A field that is not a number, a line longer than maxLine bytes and a read
// error are reported with the line they are on.
func ScanRows(r io.Reader, fn func(line int, row []float64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("line %d: parse %q: %w", line, f, err)
			}
			row[i] = v
		}
		if err := fn(line, row); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// ReadRows reads every vector of r (ScanRows) and requires them to have one
// width: a ragged row is reported with its line.
func ReadRows(r io.Reader) ([][]float64, error) {
	var rows [][]float64
	err := ScanRows(r, func(line int, row []float64) error {
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return fmt.Errorf("line %d: %d fields, the rows before it have %d", line, len(row), len(rows[0]))
		}
		rows = append(rows, row)
		return nil
	})
	return rows, err
}

// ReadRowsFile is ReadRows over the file at path, which its errors name.
func ReadRowsFile(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := ReadRows(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}
