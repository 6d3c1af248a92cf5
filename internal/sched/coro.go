//go:build go1.23

package sched

import "iter"

// newCoroutine makes th's coroutine. The iter package arrived in Go
// 1.23 while go.mod keeps the go 1.22 language line (see README), so
// this file's build constraint raises its language version to 1.23 —
// the one place the scheduler names the package.
func (th *thread) newCoroutine() {
	th.next, th.stop = iter.Pull(th.serve)
}
