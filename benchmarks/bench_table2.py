"""Table 2 — statistics on the applications used in the experiments.

The paper reports files / lines / classes / methods for 22 benchmarks,
application vs total (with supporting libraries).  Our suite mirrors the
relative sizes at ~1:100 scale; this bench regenerates the table from
the generated applications (class, method, and IR-instruction counts).
"""

from repro.bench import compute_stats, format_table2


def test_table2_application_statistics(benchmark, suite_apps, capsys):
    def build():
        return [compute_stats(suite_apps[name])
                for name in sorted(suite_apps)]

    stats = benchmark.pedantic(build, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("=" * 72)
        print("Table 2: Statistics on the Applications (scaled ~1:100)")
        print("=" * 72)
        print(format_table2(stats))

    by_name = {s.name: s for s in stats}
    assert len(stats) == 22
    # Relative-size shape from the paper's Table 2: GridSphere and ST are
    # the largest applications; I and BlueBlog the smallest.
    assert by_name["GridSphere"].app_methods == max(
        s.app_methods for s in stats)
    assert by_name["I"].app_methods <= min(
        by_name[n].app_methods for n in ("GridSphere", "ST", "MVNForum"))
    # Every app links the model library: total > app everywhere.
    for s in stats:
        assert s.total_methods > s.app_methods
        assert s.total_classes > s.app_classes
