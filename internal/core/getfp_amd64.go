package core

import "unsafe"

// getfp returns its caller's frame pointer (see getfp_amd64.s).
func getfp() unsafe.Pointer
