// Package load holds the one /metrics scrape the bench/ module's
// serve-resume workload imports.
package load

import (
	"context"

	"wlcache/internal/obs"
	"wlcache/internal/serve"
)

// ScrapeProm fetches GET /metrics and parses it with the validating
// Prometheus text parser, returning every sample (serve.Client.Scrape).
func ScrapeProm(ctx context.Context, cli *serve.Client) ([]obs.PromSample, error) {
	return cli.Scrape(ctx)
}
