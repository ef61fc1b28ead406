package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Read parses a text trace from r. Each non-empty line holds
// "<time> <id> <size> [<cost>]"; lines starting with '#' are comments.
// When the cost column is absent, Cost is set to the object size (the BHR
// convention, §2.1). A trace that parses but breaks an invariant every
// consumer relies on — see Validate — is an error too: a non-positive size
// would drive a cache's byte accounting below zero and OPT's C/(S·L) rank
// to infinity, a timestamp running backwards a gap feature negative.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	t := &Trace{}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d: want at least 3 fields, got %d", lineno, len(fields))
		}
		tm, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %v", lineno, err)
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad id: %v", lineno, err)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %v", lineno, err)
		}
		cost := float64(size)
		if len(fields) >= 4 {
			cost, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad cost: %v", lineno, err)
			}
		}
		t.Requests = append(t.Requests, Request{Time: tm, ID: ObjectID(id), Size: size, Cost: cost})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Write writes the trace in the text format understood by Read, including
// the cost column.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Requests {
		if _, err := fmt.Fprintf(bw, "%d %d %d %g\n", r.Time, uint64(r.ID), r.Size, r.Cost); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}

// ReadFile reads a text trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile writes a text trace to path, creating or truncating it.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
