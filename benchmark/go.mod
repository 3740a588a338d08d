module github.com/namdb/rdmatree/benchmark

go 1.22

require github.com/namdb/rdmatree v0.0.0

replace github.com/namdb/rdmatree => ../
