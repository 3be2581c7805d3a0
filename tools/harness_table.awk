# Folds HARNESS-COVERAGE lines (one per ctest shard of a campaign, printed
# by the harness sweep tests) into one markdown row per campaign.
# Full-campaign counts (write points, tear buckets, tamper sites and their
# region classes) are taken as printed; per-shard counts (cases, recovery
# crashes, detected, masked, audit events, recorder bundles) are summed.
# A key a line does not carry prints as "-".
#
#   awk -f tools/harness_table.awk harness-coverage.txt
/^HARNESS-COVERAGE / {
  delete kv
  for (i = 2; i <= NF; i++) {
    eq = index($i, "=")
    kv[substr($i, 1, eq - 1)] = substr($i, eq + 1)
  }
  c = kv["campaign"]
  if (!(c in seen)) {
    seen[c] = 1
    order[++n] = c
  }
  for (k in kv) {
    if (k == "campaign" || k == "shard") continue
    if (k ~ /^(cases|rcrashes|detected|masked|audit|bundles)$/) {
      value[c, k] += kv[k]
    } else {
      value[c, k] = kv[k]
    }
    has[c, k] = 1
  }
}
END {
  m = split("write_points tear_buckets cases rcrashes tamper_sites anchor " \
            "log payload map detected masked audit bundles", col, " ")
  printf "| campaign |"
  for (j = 1; j <= m; j++) printf " %s |", col[j]
  printf "\n|---|"
  for (j = 1; j <= m; j++) printf "---:|"
  printf "\n"
  for (i = 1; i <= n; i++) {
    c = order[i]
    printf "| %s |", c
    for (j = 1; j <= m; j++) {
      printf " %s |", ((c, col[j]) in has) ? value[c, col[j]] : "-"
    }
    printf "\n"
  }
}
