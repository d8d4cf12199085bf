"""Reference implementations the production code is compared against.

Each oracle is the plain, obviously-correct form of something the
package does faster or more compactly; tests assert the two agree.
"""
