pub fn doubled(cell: &OnceLock<Vec<u64>>, xs: &[u64]) -> &Vec<u64> {
    cell.get_or_init(|| {
        xs.par_iter().map(|x| x * 2).collect()
    })
}

pub fn pair(cell: &OnceLock<(u64, u64)>) -> &(u64, u64) {
    cell.get_or_init(|| rayon::join(|| 1, || 2))
}
