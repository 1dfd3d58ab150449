//go:build race

package stats

func init() { raceBuild = true }
