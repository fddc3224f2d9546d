package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed GET /metrics body. The per-layer numbers of the
// tracing-off run are differences between two scrapes taken around the
// measured phase: counters and histogram _sum/_count series subtract
// cleanly, gauges give their change.
type scrape []sample

// parseScrape reads the text exposition format: one `name{labels}
// value` line per series, # comments and blank lines skipped.
func parseScrape(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(text string) (sample, error) {
	s := sample{labels: map[string]string{}}
	end := strings.IndexAny(text, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	s.name = text[:end]
	rest := text[end:]
	if rest[0] == '{' {
		var err error
		if rest, err = parseLabels(rest[1:], s.labels); err != nil {
			return s, err
		}
	}
	// A timestamp may follow the value; this exposition writes none.
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value of %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// parseLabels consumes `k="v",...}` into into and returns what follows
// the closing brace. Label values may contain the escapes \\, \" and
// \n.
func parseLabels(in string, into map[string]string) (string, error) {
	for {
		in = strings.TrimLeft(in, " ,")
		if strings.HasPrefix(in, "}") {
			return in[1:], nil
		}
		eq := strings.Index(in, `="`)
		if eq <= 0 {
			return "", fmt.Errorf("malformed labels near %q", in)
		}
		key := in[:eq]
		in = in[eq+2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(in); i++ {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[i])
				}
				continue
			}
			if c == '"' {
				in = in[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated value of label %s", key)
		}
		into[key] = val.String()
	}
}

// sum adds every series of the named family whose labels include the
// given key/value pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
	for _, x := range s {
		if x.name == name && x.match(labels) {
			total += x.value
		}
	}
	return total
}

func (x sample) match(labels []string) bool {
	for i := 0; i+1 < len(labels); i += 2 {
		if x.labels[labels[i]] != labels[i+1] {
			return false
		}
	}
	return true
}

// delta is the change of a family's matching series between two
// scrapes.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histDelta is the sum and count a histogram gained between two
// scrapes, over its series matching labels.
func histDelta(before, after scrape, name string, labels ...string) (sum, count float64) {
	return delta(before, after, name+"_sum", labels...), delta(before, after, name+"_count", labels...)
}
