package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnapshot maps each sample of a Prometheus text exposition, keyed by
// its series exactly as written (name plus label set), to its value.
type promSnapshot map[string]float64

// parseProm reads the text exposition format cescd serves on /metrics.
func parseProm(text string) (promSnapshot, error) {
	out := promSnapshot{}
	for n, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces; the value is the last field.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", n+1, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// stageSum and stageCount name the _sum/_count series of one pipeline
// stage in cescd's cescd_stage_latency_seconds histogram family.
func stageSum(stage string) string {
	return `cescd_stage_latency_seconds_sum{stage="` + stage + `"}`
}

func stageCount(stage string) string {
	return `cescd_stage_latency_seconds_count{stage="` + stage + `"}`
}

// scrape fetches one node's Prometheus exposition.
func scrape(ctx context.Context, hc *http.Client, base string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", base, resp.Status)
	}
	return parseProm(string(body))
}

// fleetScrape is one scrape of every node of a deployment.
type fleetScrape []promSnapshot

// delta sums a series' growth over every node between two fleet scrapes.
func delta(before, after fleetScrape, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}
