// Replaces the global operator new/delete with versions that count the
// bytes and calls the heap hands out while `g_counting` is set — the
// instrument of the cost guards, which count work instead of timing it.
// The replacement is program-wide, so a test binary that wants it includes
// this header from exactly one source file and gets a binary of its own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_calls{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    g_calls.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
