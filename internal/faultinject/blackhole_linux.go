package faultinject

import (
	"fmt"
	"net"
	"syscall"
)

// Blackhole returns a loopback address whose dials hang: a listener with a
// zero backlog that never accepts, its one queue slot already taken, so
// every further SYN is dropped. (Linux semantics, hence the file name.)
// release frees the socket.
func Blackhole() (addr string, release func(), err error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		return "", nil, err
	}
	fail := func(err error) (string, func(), error) {
		syscall.Close(fd)
		return "", nil, err
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		return fail(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		return fail(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return fail(err)
	}
	addr = fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.Dial("tcp", addr)
	if err != nil {
		return fail(err)
	}
	return addr, func() { filler.Close(); syscall.Close(fd) }, nil
}
