module gupster/benchmark

go 1.24

require gupster v0.0.0

replace gupster => ../
