package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteTrace serialises a trace as CSV (header: op,block,page) preceded
// by two comment-free metadata rows (name and seed), so traces can be
// recorded once and replayed across tools (xlnand trace -record/-replay).
func WriteTrace(w io.Writer, tr Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#name", tr.Name}); err != nil {
		return err
	}
	if err := cw.Write([]string{"#seed", strconv.FormatUint(tr.Seed, 10)}); err != nil {
		return err
	}
	if err := cw.Write([]string{"op", "block", "page"}); err != nil {
		return err
	}
	for _, r := range tr.Requests {
		rec := []string{r.Kind.String(), strconv.Itoa(r.Block), strconv.Itoa(r.Page)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var tr Trace
	rows, err := cr.ReadAll()
	if err != nil {
		return tr, fmt.Errorf("workload: trace parse: %w", err)
	}
	if len(rows) < 3 {
		return tr, fmt.Errorf("workload: trace too short (%d rows)", len(rows))
	}
	if rows[0][0] != "#name" || rows[1][0] != "#seed" || len(rows[0]) < 2 || len(rows[1]) < 2 {
		return tr, fmt.Errorf("workload: trace missing metadata rows")
	}
	tr.Name = rows[0][1]
	seed, err := strconv.ParseUint(rows[1][1], 10, 64)
	if err != nil {
		return tr, fmt.Errorf("workload: bad seed: %w", err)
	}
	tr.Seed = seed
	if len(rows[2]) < 3 || rows[2][0] != "op" {
		return tr, fmt.Errorf("workload: trace missing header row")
	}
	for i, row := range rows[3:] {
		if len(row) < 3 {
			return tr, fmt.Errorf("workload: row %d has %d fields", i+4, len(row))
		}
		var kind OpKind
		switch row[0] {
		case "write":
			kind = OpWrite
		case "read":
			kind = OpRead
		case "erase":
			kind = OpErase
		default:
			return tr, fmt.Errorf("workload: row %d has unknown op %q", i+4, row[0])
		}
		block, err := strconv.Atoi(row[1])
		if err != nil {
			return tr, fmt.Errorf("workload: row %d block: %w", i+4, err)
		}
		page, err := strconv.Atoi(row[2])
		if err != nil {
			return tr, fmt.Errorf("workload: row %d page: %w", i+4, err)
		}
		tr.Requests = append(tr.Requests, Request{Kind: kind, Block: block, Page: page})
	}
	return tr, nil
}
