//go:build race

package scenario

func init() { raceBuild = true }
