//go:build !amd64

package core

import "unsafe"

// getfp reports no frame pointer, so CallerLocationID keys every
// lookup by the logical PC runtime.Callers reports. Frame-pointer keys
// are amd64-only until another GOARCH's frame layout can be tested.
func getfp() unsafe.Pointer { return nil }
