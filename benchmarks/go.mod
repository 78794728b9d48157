module ctpquery/benchmarks

go 1.21

require ctpquery v0.0.0

replace ctpquery => ../
