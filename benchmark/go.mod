module sssdb/benchmark

go 1.22

require sssdb v0.0.0

replace sssdb => ../
