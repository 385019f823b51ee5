module exacoll/benchmark

go 1.22

require exacoll v0.0.0

replace exacoll => ../
