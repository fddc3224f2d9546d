package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// client is the load generator's single caller. It keeps at most two
// connections to the server — one for requests, one for a job's event
// stream — and times every request per route, so the per-layer run can
// set client latency against the server's own route histogram.
type client struct {
	hc   *http.Client
	base string
	// lat holds the client-side latency (seconds) of every request
	// since the last reset, by server route label.
	lat map[string][]float64
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base, lat: map[string][]float64{}}
}

func (c *client) resetLatencies() { c.lat = map[string][]float64{} }

// call sends one request and returns the response body; a non-2xx
// status is an error. route is the server's route label for the path.
func (c *client) call(ctx context.Context, method, route, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.lat[route] = append(c.lat[route], time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// awaitDone follows a job's Server-Sent Events stream until its "done"
// event and returns that event's data.
func (c *client) awaitDone(ctx context.Context, jobID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: %s", jobID, resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("events of %s ended before done: %w", jobID, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return []byte(strings.TrimPrefix(line, "data: ")), nil
		}
	}
}

// scrapeMetrics fetches and parses GET /metrics (untimed).
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// decodeJSON unmarshals a response body, naming what it was.
func decodeJSON(what string, data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}
